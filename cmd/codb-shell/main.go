// Command codb-shell is the interactive console corresponding to the
// paper's query interface and peer-discovery windows (Figures 2 and 3): it
// builds a whole coDB network in-process from a configuration file and lets
// the user query any node, run global and scoped updates, inspect links,
// pipes and reports, and reconfigure the topology at runtime.
//
// Usage:
//
//	codb-shell -config net.codb
//	codb-shell -config net.codb -tcp                   # peers on real sockets
//	codb-shell -config net.codb -http 127.0.0.1:8080   # + HTTP/JSON gateway
//
// Commands (also `help` at the prompt):
//
//	query <node> <query>        distributed query with streaming results
//	certain <node> <query>      distributed query, certain answers only
//	local <node> <query>        local-only query
//	update <node>               run a global update from <node>
//	scoped <node> <rel,...>     query-dependent update for the relations
//	insert <node> <rel> v1 v2…  insert a tuple (ints, "strings", true/false)
//	show <node> <rel>           dump a relation
//	peers <node>                pipes, links and discovered peers (Fig. 3)
//	report <node>               the node's session reports
//	cache <node>                the node's read-path counters
//	storage <node>              per-relation storage, WAL and commit/fsync stats
//	wire <node>                 TCP frame/byte counters and outbox batching
//	stats                       super-peer: collect and aggregate statistics
//	reload <file>               broadcast a new rules file (runtime change)
//	topology                    list nodes and rules
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"codb"
	"codb/internal/console"
)

func main() {
	cfgPath := flag.String("config", "", "network configuration file (required)")
	useTCP := flag.Bool("tcp", false, "connect peers over real TCP sockets instead of the in-process bus")
	httpAddr := flag.String("http", "", "serve an HTTP/JSON gateway for the whole network on this address (select nodes with ?node=)")
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "codb-shell: -config is required")
		os.Exit(2)
	}
	text, err := os.ReadFile(*cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-shell:", err)
		os.Exit(1)
	}
	opts := codb.NetworkOptions{}
	opts.Transport.TCP = *useTCP
	nw, err := codb.NewNetworkFromConfigWithOptions(string(text), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-shell:", err)
		os.Exit(1)
	}
	defer nw.Close()
	fmt.Printf("coDB network up: peers %v\n", nw.Peers())
	if *httpAddr != "" {
		bound, err := nw.StartGateway(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-shell:", err)
			nw.Close()
			os.Exit(1)
		}
		fmt.Printf("coDB http gateway on %s\n", bound)
	}

	c := console.New(nw, os.Stdout)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("codb> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		if !c.Execute(sc.Text()) {
			return
		}
	}
}
