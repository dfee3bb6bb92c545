// Command bcfd is the remote proving daemon: it serves the proofrpc
// protocol over TCP and/or Unix sockets, wrapping the solver behind a
// singleflight-coalescing memory cache and a content-addressed disk
// store so identical obligations — across clients, loads and restarts —
// are proven once.
//
// Usage:
//
//	bcfd -unix /run/bcfd.sock                      # serve on a Unix socket
//	bcfd -listen :9190                             # serve on TCP
//	bcfd -unix /run/bcfd.sock -cache-dir /var/cache/bcfd   # persistent proofs
//	bcfd -http :9191                               # /metrics (Prometheus text)
//
// Clients: bcfverify -remote unix:/run/bcfd.sock, bcfbench -remote ...,
// or any loader configured with a prooffleet.Fleet. A SIGINT/SIGTERM
// drains gracefully: in-flight obligations finish, then the daemon
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/proofd"
	"bcf/internal/solver"
)

func main() {
	listen := flag.String("listen", "", "serve the proving protocol on this TCP address (e.g. :9190)")
	unixSock := flag.String("unix", "", "serve the proving protocol on this Unix socket path")
	cacheDir := flag.String("cache-dir", "", "content-addressed disk proof store (empty = memory only)")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/journal and /debug/pprof on this address")
	traceFile := flag.String("tracefile", "", "write the daemon's own Perfetto trace here on exit")
	traceCap := flag.Int("trace-cap", 0, "span ring capacity for ship-spans-back (0 = default)")
	journalSize := flag.Int("journal-size", 0, "flight-recorder ring entries (0 = default)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently-proving requests (0 = 2×GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 0, "in-memory proof cache entries (0 = default)")
	proveTimeout := flag.Duration("prove-timeout", 0, "per-obligation solver deadline (0 = none)")
	maxConflicts := flag.Int64("max-conflicts", 0, "SAT conflict budget per obligation (0 = solver default)")
	drain := flag.Duration("drain", proofd.DefaultDrainTimeout, "graceful shutdown drain budget")
	quiet := flag.Bool("q", false, "suppress the startup banner")
	flag.Parse()

	if *listen == "" && *unixSock == "" {
		fmt.Fprintln(os.Stderr, "bcfd: need -listen and/or -unix; see -h")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	journal := obs.NewJournal(*journalSize)
	reg.SetJournal(journal)
	// The tracer is always on: clients that propagate a trace context ask
	// the daemon to retain its spans (ship-spans-back), so the ring must
	// exist before the first traced request arrives. Bounded, so an
	// untraced long-lived daemon pays one fixed allocation.
	tracer := obs.NewTracerCap(*traceCap).WithProcess(os.Getpid(), "bcfd")
	opts := proofd.Options{
		Solver:       solver.Options{MaxConflicts: *maxConflicts},
		ProveTimeout: *proveTimeout,
		Cache:        loader.NewProofCacheCap(*cacheCap),
		MaxInflight:  *maxInflight,
		Obs:          reg,
		Trace:        tracer,
	}
	if *cacheDir != "" {
		store, err := proofd.OpenStore(*cacheDir, reg)
		if err != nil {
			fatal(err)
		}
		opts.Store = store
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bcfd: disk store %s (%d proofs)\n", store.Dir(), store.Len())
		}
	}
	srv := proofd.New(opts)

	var listeners []net.Listener
	addListener := func(network, addr string) {
		l, err := net.Listen(network, addr)
		if err != nil {
			fatal(err)
		}
		listeners = append(listeners, l)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bcfd: serving on %s %s\n", network, l.Addr())
		}
	}
	if *unixSock != "" {
		// A stale socket from an unclean exit would fail the bind.
		os.Remove(*unixSock)
		addListener("unix", *unixSock)
	}
	if *listen != "" {
		addListener("tcp", *listen)
	}

	if *httpAddr != "" {
		mux := obs.DebugMux(reg, nil)
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bcfd: http:", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bcfd: /metrics and /debug/journal on %s\n", *httpAddr)
		}
	}

	errs := make(chan error, len(listeners))
	for _, l := range listeners {
		go func(l net.Listener) { errs <- srv.Serve(l) }(l)
	}

	// SIGQUIT dumps the flight recorder without exiting (black-box
	// inspection of a live daemon); SIGINT/SIGTERM drain gracefully.
	quitSig := make(chan os.Signal, 1)
	signal.Notify(quitSig, syscall.SIGQUIT)
	go func() {
		for range quitSig {
			fmt.Fprintf(os.Stderr, "bcfd: SIGQUIT: flight recorder (%d events recorded)\n", journal.Seq())
			journal.Dump(os.Stderr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		if !*quiet {
			fmt.Fprintf(os.Stderr, "bcfd: %v: draining (budget %v)\n", s, *drain)
		}
	case err := <-errs:
		if err != nil {
			fmt.Fprintln(os.Stderr, "bcfd: serve:", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bcfd: drain:", err)
	}
	if *unixSock != "" {
		os.Remove(*unixSock)
	}
	if *traceFile != "" {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "bcfd: tracefile:", err)
		} else if !*quiet {
			fmt.Fprintf(os.Stderr, "bcfd: trace written to %s\n", *traceFile)
		}
	}
	if !*quiet {
		snap := srv.Cache().Snapshot()
		fmt.Fprintf(os.Stderr, "bcfd: exit: cache hits=%d misses=%d coalesced=%d size=%d\n",
			snap.Hits, snap.Misses, snap.Coalesced, snap.Size)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcfd:", err)
	os.Exit(1)
}
