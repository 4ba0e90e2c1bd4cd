// Command codb-gen emits coordination-rules configuration files for the
// standard experiment topologies, optionally assigning TCP listen addresses
// so the file can drive a multi-process deployment with codb-peer and
// codb-super.
//
// Usage:
//
//	codb-gen -shape chain -n 8 > chain8.codb
//	codb-gen -shape random -n 16 -seed 7 -addr-base 127.0.0.1:7000 > net.codb
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"

	"codb/internal/topo"
)

func main() {
	shape := flag.String("shape", "chain", "topology: chain|ring|star|tree|grid|random|complete|fanout")
	n := flag.Int("n", 4, "number of peers")
	seed := flag.Int64("seed", 1, "seed for random topologies")
	existential := flag.Bool("existential", false, "use existential-head rules (marked nulls)")
	addrBase := flag.String("addr-base", "", "assign TCP addresses host:port, port+i per node (empty = none)")
	version := flag.Int("version", 1, "configuration version")
	flag.Parse()

	opts := topo.Options{Seed: *seed, Version: *version}
	if *existential {
		opts.Rule = topo.ExistentialRule
	}
	cfg, err := topo.Build(topo.Shape(*shape), *n, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codb-gen:", err)
		os.Exit(2)
	}
	if *addrBase != "" {
		host, portStr, err := net.SplitHostPort(*addrBase)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-gen: bad -addr-base:", err)
			os.Exit(2)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codb-gen: bad -addr-base port:", err)
			os.Exit(2)
		}
		for i := range cfg.Nodes {
			cfg.Nodes[i].Addr = net.JoinHostPort(host, strconv.Itoa(port+i))
		}
	}
	fmt.Print(cfg.String())
}
