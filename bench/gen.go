package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"codb"
)

// Workload names are normative: later issues cite them.
const (
	wUpdateCold = "update-cold"
	wUpdateIncr = "update-incr-durable"
	wQueryFetch = "query-fetch"
	wReadWrite  = "read-write-mix"
	wHTTP       = "http-openloop"
)

var workloadNames = []string{wUpdateCold, wUpdateIncr, wQueryFetch, wReadWrite, wHTTP}

// Every generated node shares this one relation.
const (
	relName = "data"
	relDecl = "data(k int, v int)"
)

// structSeed fixes the *shape* of every workload's data (which abstract
// value sits where). The -seed argument only relabels the abstract values
// through a random bijection and reorders rows and requests, so every seed
// gives different inputs with identical cardinalities: join fan-outs, answer
// sizes and shipped-tuple counts are the same on every seed, and runs with
// different seeds are comparable.
const structSeed = 0xC0DB

// burstBase is the first key of rows inserted while a workload runs. It lies
// above every labelled value, so bursts never change a templated answer.
const burstBase = 1 << 30

// Sizes. Chosen by measurement on the 2-CPU box the baseline ran on; the
// README records why.
const (
	coldNodes   = 8
	coldRows    = 800  // rows per node
	coldDomain  = 1600 // join domain: mean fan-out rows/domain = 0.5
	incrNodes   = 6
	incrRows    = 500 // initial rows per node
	incrBurst   = 64
	fetchNodes  = 8
	fetchHot    = 64 // templated queries; each node holds 2 rows per template
	mixLeaves   = 3
	mixLeafRows = 6667 // hub materialises to ~20k rows
	mixBurst    = 32
	mixHot      = 32
	httpNodes   = 4
	httpHot     = 64
	httpFiller  = 186 // rows per node beside the hot keys
	schedLen    = 4096
)

type ruleText struct{ ID, Text string }

// query is one templated query with the answer the oracle gives for it.
type query struct {
	Text string
	Want []codb.Tuple // filled by the workload from the oracle instance
}

// schedEntry is one request of the http-openloop pattern.
type schedEntry struct {
	Kind byte // 'l' local query, 'd' distributed query, 'i' insert
	Key  int  // index into the workload's key table
}

// inputs is everything a workload feeds the system, generated from the seed
// alone.
type inputs struct {
	Workload string
	Nodes    []string
	Rules    []ruleText
	Data     map[string][]codb.Tuple // initial rows per node, insertion order
	Hot      []query                 // templated queries, request order
	Cold     []int                   // read-write-mix: never-repeated lookup keys, request order
	Keys     []int                   // http-openloop: local lookup keys (hot first)
	Sched    []schedEntry            // http-openloop: request pattern, cycled
	burstRnd int64                   // seed of the burst value stream
}

func nodeName(i int) string { return fmt.Sprintf("N%d", i) }

func row(k, v int) codb.Tuple { return codb.Row(codb.Int(k), codb.Int(v)) }

func copyRule(id string, importer, exporter int) ruleText {
	return ruleText{id, fmt.Sprintf("%s.data(x, y) <- %s.data(x, y)", nodeName(importer), nodeName(exporter))}
}

func joinRule(id string, importer, exporter int) ruleText {
	e := nodeName(exporter)
	return ruleText{id, fmt.Sprintf("%s.data(x, z) <- %s.data(x, y), %s.data(y, z)", nodeName(importer), e, e)}
}

// chainRules: N0 <- N1 <- ... <- N(n-1), copy rules.
func chainRules(n int) []ruleText {
	var out []ruleText
	for i := 0; i < n-1; i++ {
		out = append(out, copyRule(fmt.Sprintf("e%d", i), i, i+1))
	}
	return out
}

// burst returns the i-th batch of n fresh rows (keys above burstBase).
func (in *inputs) burst(i, n int) []codb.Tuple {
	rnd := rand.New(rand.NewSource(in.burstRnd + int64(i)))
	rows := make([]codb.Tuple, n)
	for j := range rows {
		rows[j] = row(burstBase+i*n+j, rnd.Intn(1<<20))
	}
	return rows
}

// generate builds a workload's inputs from the seed.
func generate(workload string, seed int64) (*inputs, error) {
	shape := rand.New(rand.NewSource(structSeed))
	rnd := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: workload, Data: map[string][]codb.Tuple{}, burstRnd: rnd.Int63()}
	nodes := func(n int) {
		for i := 0; i < n; i++ {
			in.Nodes = append(in.Nodes, nodeName(i))
		}
	}
	// label maps abstract value a in [0, d) to its seed-specific value.
	var label []int
	relabel := func(d int) { label = rnd.Perm(d) }
	put := func(node int, k, v int) {
		name := nodeName(node)
		in.Data[name] = append(in.Data[name], row(label[k], label[v]))
	}
	shuffleRows := func() {
		for _, name := range in.Nodes {
			rows := in.Data[name]
			rnd.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
	}

	switch workload {
	case wUpdateCold:
		// Binary tree, parents import from children; the links out of
		// odd-numbered exporters carry the self-join, the rest copy.
		nodes(coldNodes)
		relabel(coldDomain)
		for i := 1; i < coldNodes; i++ {
			id := fmt.Sprintf("e%d", i-1)
			if i%2 == 1 {
				in.Rules = append(in.Rules, joinRule(id, (i-1)/2, i))
			} else {
				in.Rules = append(in.Rules, copyRule(id, (i-1)/2, i))
			}
		}
		shared := make([][2]int, coldRows/10) // 10% overlap between nodes
		for i := range shared {
			shared[i] = [2]int{shape.Intn(coldDomain), shape.Intn(coldDomain)}
		}
		for n := 0; n < coldNodes; n++ {
			for _, s := range shared {
				put(n, s[0], s[1])
			}
			for i := len(shared); i < coldRows; i++ {
				put(n, shape.Intn(coldDomain), shape.Intn(coldDomain))
			}
		}
		shuffleRows()

	case wUpdateIncr:
		nodes(incrNodes)
		in.Rules = chainRules(incrNodes)
		relabel(incrNodes * incrRows)
		for n := 0; n < incrNodes; n++ {
			for j := 0; j < incrRows; j++ {
				put(n, n*incrRows+j, shape.Intn(incrNodes*incrRows))
			}
		}
		shuffleRows()

	case wQueryFetch:
		// Per template h every node i holds (K_h, U_hi) and (U_hi, W_hi):
		// a lookup of K_h answers one row per node, its self-join too.
		nodes(fetchNodes)
		in.Rules = chainRules(fetchNodes)
		relabel(fetchHot * (1 + 2*fetchNodes))
		for n := 0; n < fetchNodes; n++ {
			for h := 0; h < fetchHot; h++ {
				u := fetchHot + n*fetchHot + h
				w := fetchHot*(1+fetchNodes) + n*fetchHot + h
				put(n, h, u)
				put(n, u, w)
			}
		}
		shuffleRows()
		for h := 0; h < fetchHot; h++ {
			if h%2 == 0 {
				in.Hot = append(in.Hot, query{Text: fmt.Sprintf("ans(v) :- data(%d, v)", label[h])})
			} else {
				in.Hot = append(in.Hot, query{Text: fmt.Sprintf("ans(z) :- data(%d, y), data(y, z)", label[h])})
			}
		}
		rnd.Shuffle(len(in.Hot), func(i, j int) { in.Hot[i], in.Hot[j] = in.Hot[j], in.Hot[i] })

	case wReadWrite:
		// Star: hub N0 imports from three leaves. Keys are unique and
		// cover [0, d) exactly, values are keys again, so a point lookup
		// answers 1 row, a self-join 1 row and a 50-wide key range 50 rows
		// on every seed.
		nodes(1 + mixLeaves)
		d := mixLeaves * mixLeafRows
		relabel(d)
		for l := 1; l <= mixLeaves; l++ {
			in.Rules = append(in.Rules, copyRule(fmt.Sprintf("e%d", l-1), 0, l))
			for j := 0; j < mixLeafRows; j++ {
				put(l, (l-1)*mixLeafRows+j, shape.Intn(d))
			}
		}
		shuffleRows()
		for h := 0; h < mixHot; h++ {
			a := shape.Intn(d - 50)
			switch {
			case h < 28:
				in.Hot = append(in.Hot, query{Text: fmt.Sprintf("ans(v) :- data(%d, v)", label[a])})
			case h < 30:
				in.Hot = append(in.Hot, query{Text: fmt.Sprintf("ans(z) :- data(%d, y), data(y, z)", label[a])})
			default:
				// Ranges are over labelled values; every integer of
				// [0, d) is a key, so the count does not depend on the seed.
				in.Hot = append(in.Hot, query{Text: fmt.Sprintf("ans(k, v) :- data(k, v), k >= %d, k < %d", a, a+50)})
			}
		}
		rnd.Shuffle(len(in.Hot), func(i, j int) { in.Hot[i], in.Hot[j] = in.Hot[j], in.Hot[i] })
		in.Cold = rnd.Perm(d)

	case wHTTP:
		// Chain of four. 64 hot keys live at every node with node-specific
		// values (4 rows at the head once materialised); filler keys are
		// unique (1 row).
		nodes(httpNodes)
		in.Rules = chainRules(httpNodes)
		d := httpHot + httpNodes*(httpHot+2*httpFiller)
		relabel(d)
		next := httpHot
		for h := 0; h < httpHot; h++ {
			in.Keys = append(in.Keys, label[h])
		}
		for n := 0; n < httpNodes; n++ {
			for h := 0; h < httpHot; h++ {
				put(n, h, next)
				next++
			}
			for j := 0; j < httpFiller; j++ {
				put(n, next, next+1)
				in.Keys = append(in.Keys, label[next])
				next += 2
			}
		}
		shuffleRows()
		// 85% local, 10% distributed, 5% insert: an exact deck, shuffled.
		for i := 0; i < schedLen; i++ {
			var e schedEntry
			switch r := i % 20; {
			case r == 0:
				e = schedEntry{Kind: 'i'}
			case r <= 2:
				e = schedEntry{Kind: 'd', Key: shape.Intn(httpHot)}
			case r%2 == 1:
				e = schedEntry{Kind: 'l', Key: shape.Intn(32)} // hot half: 32 texts
			default:
				e = schedEntry{Kind: 'l', Key: shape.Intn(len(in.Keys))}
			}
			in.Sched = append(in.Sched, e)
		}
		rnd.Shuffle(len(in.Sched), func(i, j int) { in.Sched[i], in.Sched[j] = in.Sched[j], in.Sched[i] })

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return in, nil
}

// digest hashes everything generated — topology, rules, data, queries,
// bursts and schedule — so two runs can prove they used the same inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	fmt.Fprintln(h, in.Workload, in.Nodes)
	for _, r := range in.Rules {
		fmt.Fprintln(h, r.ID, r.Text)
	}
	for _, n := range in.Nodes {
		fmt.Fprintln(h, n, len(in.Data[n]))
		for _, t := range in.Data[n] {
			fmt.Fprintln(h, t[0].Int, t[1].Int)
		}
	}
	for _, q := range in.Hot {
		fmt.Fprintln(h, q.Text)
	}
	fmt.Fprintln(h, in.Cold, in.Keys, in.Sched)
	for i := 0; i < 4; i++ {
		for _, t := range in.burst(i, incrBurst) {
			fmt.Fprintln(h, t[0].Int, t[1].Int)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
