// Command codb-peer runs one coDB node as an OS process over TCP — the
// deployment the paper's JXTA peers correspond to. Peers are configured
// from a shared configuration file (schemas, rules, addresses) or
// dynamically by a super-peer broadcast.
//
// Usage:
//
//	codb-peer -name N1 -config net.codb            # address from the file
//	codb-peer -name N2 -config net.codb -data ./n2 # durable storage
//	codb-peer -name N3 -listen 127.0.0.1:7003      # wait for broadcasts
//	codb-peer -name N4 -http 127.0.0.1:8080        # + HTTP/JSON gateway
//	codb-peer -name N5 -join 127.0.0.1:7001        # join a live network
//	codb-peer -name N6 -pprof 127.0.0.1:6060       # + net/http/pprof, its own listener
//
// The process runs until interrupted. With -mediator the node has no local
// database: its relations are held transiently by a memory-only engine.
// With -http the node also serves the HTTP/JSON gateway (query, insert,
// update, stats, health; see internal/api/http) on the given address.
//
// With -join the peer needs no configuration file: it dials the given
// admitting peer (super-peer or any network member), is admitted at a fresh
// directory epoch, and receives the current rules and directory over the
// wire. With -leave-on-signal the peer departs cleanly when interrupted: it
// floods a Leave notice and flushes its outbox, so survivors tombstone it
// instead of timing out on a dead address.
//
// With -pprof the process serves /debug/pprof/ on a listener of its own
// (never the gateway's), off by default:
// `go tool pprof -top http://ADDR/debug/pprof/profile?seconds=10`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	httpapi "codb/internal/api/http"
	"codb/internal/config"
	"codb/internal/core"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

func main() {
	name := flag.String("name", "", "node name (required)")
	listen := flag.String("listen", "", "listen address (defaults to the address in -config)")
	cfgPath := flag.String("config", "", "network configuration file")
	dataDir := flag.String("data", "", "durable storage directory (empty = in-memory)")
	syncCommit := flag.Bool("sync-commit", false, "make every commit durable before it returns (group-committed)")
	segmentBytes := flag.Int64("segment-bytes", 0, "WAL segment rotation size in bytes (0 = default)")
	retainSegments := flag.Int("retain-segments", 0, "checkpoint-superseded WAL segments kept for changelog spill (0 = default, negative = none)")
	httpAddr := flag.String("http", "", "serve the HTTP/JSON gateway on this address (empty = no gateway)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, separate from -http (empty = off)")
	mediator := flag.Bool("mediator", false, "run without a local database")
	var linkPolicies linkPolicyFlags
	flag.Var(&linkPolicies, "link-policy", "per-link propagation policy rule=mode[:filter], mode push|pull|adaptive|filter (repeatable)")
	maxStaleness := flag.Duration("max-staleness", 0, "deadline after which a stale pull link is pulled without a read (0 = on demand only)")
	pullTimeout := flag.Duration("pull-timeout", 0, "how long a local query waits on a triggered pull before serving stale data (0 = default 2s)")
	suspicionTimeout := flag.Duration("suspicion-timeout", 0, "silence after which an acquaintance is suspected, twice that down (0 = failure detection off)")
	suspicionInterval := flag.Duration("suspicion-interval", 0, "heartbeat and detector scan period (0 = suspicion-timeout/4)")
	joinAddr := flag.String("join", "", "join a live network via the admitting peer at this address")
	leaveOnSignal := flag.Bool("leave-on-signal", false, "announce a coordinated leave before shutting down")
	verbose := flag.Bool("v", false, "verbose logging")
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "codb-peer: -name is required")
		os.Exit(2)
	}

	var cfg *config.Config
	if *cfgPath != "" {
		text, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = config.Parse(string(text))
		if err != nil {
			fatal(err)
		}
	}

	addr := *listen
	if addr == "" && cfg != nil {
		if decl := cfg.Node(*name); decl != nil {
			addr = decl.Addr
		}
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}

	if *pprofAddr != "" {
		ln, err := servePprof(*pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Printf("codb-peer %s pprof on %s\n", *name, ln.Addr())
	}

	tr, err := transport.NewTCP(*name, addr)
	if err != nil {
		fatal(err)
	}

	var wrapper core.Wrapper
	var db *storage.DB
	if *mediator {
		schema := relation.NewSchema()
		if cfg != nil {
			if decl := cfg.Node(*name); decl != nil {
				schema = decl.Schema
			}
		}
		wrapper = core.NewMediatorWrapper(schema)
	} else {
		var err error
		db, err = storage.Open(storage.Options{
			Dir:            *dataDir,
			SyncOnCommit:   *syncCommit,
			SegmentBytes:   *segmentBytes,
			RetainSegments: *retainSegments,
		})
		if err != nil {
			fatal(err)
		}
		wrapper = core.NewStoreWrapper(db)
	}

	logLevel := slog.LevelWarn
	if *verbose {
		logLevel = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	opts := peer.Options{Name: *name, Transport: tr, Wrapper: wrapper, Logger: logger}
	opts.LinkPolicies = linkPolicies.modes
	opts.LinkFilters = linkPolicies.filters
	opts.MaxStaleness = *maxStaleness
	opts.PullTimeout = *pullTimeout
	opts.SuspicionTimeout = *suspicionTimeout
	opts.SuspicionInterval = *suspicionInterval
	if cfg != nil {
		opts.Directory = cfg.Directory()
	}
	p, err := peer.New(opts)
	if err != nil {
		fatal(err)
	}
	if cfg != nil {
		if err := p.ApplyConfig(cfg, cfg.Version); err != nil {
			p.Stop()
			fatal(err)
		}
	}
	if *joinAddr != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := p.JoinVia(ctx, *joinAddr); err != nil {
			cancel()
			p.Stop()
			fatal(err)
		}
		cancel()
		fmt.Printf("codb-peer %s joined network via %s\n", *name, *joinAddr)
	}
	fmt.Printf("codb-peer %s listening on %s\n", *name, tr.Addr())
	var gw *httpapi.Server
	if *httpAddr != "" {
		gw, err = httpapi.New(httpapi.Options{Addr: *httpAddr, Peer: p, Logger: logger})
		if err != nil {
			p.Stop()
			fatal(err)
		}
		fmt.Printf("codb-peer %s http on %s\n", *name, gw.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("codb-peer: shutting down")
	if gw != nil {
		gw.Close()
	}
	if *leaveOnSignal {
		if err := p.Leave(); err != nil {
			fmt.Fprintln(os.Stderr, "codb-peer: leave:", err)
		} else {
			fmt.Println("codb-peer: left the network")
		}
	}
	p.Stop()
	if db != nil {
		// A failed close can lose buffered WAL writes of a durable node —
		// that is an error exit, not a shrug.
		if err := db.Close(); err != nil {
			fatal(err)
		}
	}
}

// servePprof serves the runtime profiling endpoints on their own listener
// and mux, for the life of the process.
func servePprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) // returns when main closes ln or the process exits
	return ln, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "codb-peer:", err)
	os.Exit(1)
}

// linkPolicyFlags accumulates repeated -link-policy rule=mode[:filter]
// values.
type linkPolicyFlags struct {
	modes   map[string]string
	filters map[string]string
	specs   []string
}

func (f *linkPolicyFlags) String() string { return strings.Join(f.specs, ",") }

func (f *linkPolicyFlags) Set(spec string) error {
	rule, rest, ok := strings.Cut(spec, "=")
	if !ok || rule == "" {
		return fmt.Errorf("want rule=mode[:filter], got %q", spec)
	}
	mode, filter, _ := strings.Cut(rest, ":")
	if _, err := core.ParsePolicyMode(mode); err != nil {
		return err
	}
	if f.modes == nil {
		f.modes = make(map[string]string)
		f.filters = make(map[string]string)
	}
	f.modes[rule] = mode
	if filter != "" {
		f.filters[rule] = filter
	}
	f.specs = append(f.specs, spec)
	return nil
}
