// Command bcffuzz runs the coverage-guided soundness campaign
// (internal/fuzzcamp): feedback-driven mutation fuzzing of the verifier
// against the three differential oracles, fanned out over the proofrpc
// frame protocol.
//
// Usage:
//
//	bcffuzz -execs 256 -workers 4 -json -          # bounded local campaign
//	bcffuzz -duration 3m -promote out/ -json stats.json   # nightly shape
//	bcffuzz -corpus-dir state/ ...                 # resume + save corpus coverage
//	bcffuzz -sabotage collapse-add -stop-on-failure       # detection drill
//	bcffuzz -listen tcp::7072 ...                  # also accept remote workers
//	bcffuzz -connect tcp:mgr:7072                  # pure worker process
//	bcffuzz -remote unix:/run/bcfd.sock ...        # prove via bcfd (comma-separated = fleet)
//
// The campaign is deterministic for a fixed -seed and -execs budget at
// any -workers count. Exit status: 0 clean, 1 oracle violations found,
// 2 usage or runtime error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bcf/internal/fuzzcamp"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
	"bcf/internal/proofrpc"
	"bcf/internal/verifier"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcffuzz:", err)
	os.Exit(2)
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "campaign seed (fixed seed + fixed -execs = identical results at any -workers)")
		workers    = flag.Int("workers", 4, "local worker connections to run")
		execs      = flag.Int("execs", 0, "total exec budget (0 = unbounded when -duration set, else one round)")
		rounds     = flag.Int("rounds", 0, "round budget (overrides -execs when set)")
		batch      = flag.Int("batch", 32, "work items per campaign round")
		chunk      = flag.Int("chunk", 0, "items per worker pull (0 = default)")
		duration   = flag.Duration("duration", 0, "wall-clock budget (stops at the next round boundary)")
		inputs     = flag.Int("inputs", 0, "interpreter samples per oracle (0 = default)")
		advEvery   = flag.Int("adversary-every", 4, "run the checker-adversary oracle on every Nth item (<0 = never)")
		minBudget  = flag.Int("minimize-budget", 0, "oracle evaluations per failure minimization (0 = default)")
		stopOnFail = flag.Bool("stop-on-failure", false, "finish after the first failing item (deterministic item order)")
		sabotage   = flag.String("sabotage", "", "plant a verifier bug for a detection drill: collapse-add | skip-mem-bounds")
		promote    = flag.String("promote", "", "directory for minimized .bpfasm reproducers")
		corpusDir  = flag.String("corpus-dir", "", "directory for cross-process corpus state: resume coverage from it, save back on exit")
		remote     = flag.String("remote", "", "bcfd endpoint(s) for remote proving (comma-separated = fleet)")
		listen     = flag.String("listen", "", "also accept external workers on this address (unix:/path or tcp:host:port)")
		connect    = flag.String("connect", "", "run as a worker for the manager at this address (no local campaign)")
		jsonOut    = flag.String("json", "", "write campaign stats JSON to this file (- = stdout)")
		quiet      = flag.Bool("q", false, "suppress per-round progress")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()

	var sab *verifier.Sabotage
	switch *sabotage {
	case "":
	case "collapse-add":
		sab = &verifier.Sabotage{CollapseAddBounds: true}
	case "skip-mem-bounds":
		sab = &verifier.Sabotage{SkipMemBounds: true}
	default:
		fatal(fmt.Errorf("unknown -sabotage %q (collapse-add | skip-mem-bounds)", *sabotage))
	}

	var remoteProver loader.RemoteProver
	if *remote != "" {
		f, err := prooffleet.New(prooffleet.Options{Endpoints: prooffleet.SplitEndpoints(*remote), Obs: reg})
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		remoteProver = f
	}

	exec := fuzzcamp.ExecOptions{
		Inputs:   *inputs,
		Sabotage: sab,
		Remote:   remoteProver,
	}

	// Pure worker mode: connect to a remote manager and pull work until
	// it says done.
	if *connect != "" {
		network, addr, err := proofrpc.ParseAddr(*connect)
		if err != nil {
			fatal(err)
		}
		conn, err := net.Dial(network, addr)
		if err != nil {
			fatal(err)
		}
		if err := fuzzcamp.RunWorker(ctx, conn, exec); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	opt := fuzzcamp.Options{
		Seed:           *seed,
		Rounds:         *rounds,
		Execs:          *execs,
		Batch:          *batch,
		AdversaryEvery: *advEvery,
		StopOnFailure:  *stopOnFail,
		MinimizeBudget: *minBudget,
		PromoteDir:     *promote,
		Exec:           exec,
		Obs:            reg,
	}
	if !*quiet {
		opt.Log = os.Stderr
	}
	if *duration > 0 {
		opt.Deadline = time.Now().Add(*duration)
	}

	camp := fuzzcamp.New(opt)
	if *corpusDir != "" {
		loaded, err := camp.LoadState(*corpusDir)
		if err != nil {
			fatal(err)
		}
		if loaded && !*quiet {
			fmt.Fprintf(os.Stderr, "resumed corpus state from %s\n", *corpusDir)
		}
	}
	mgr := fuzzcamp.NewManager(camp, *chunk)

	// The local fan-out is the same manager/worker protocol external
	// workers speak, over in-memory pipes: every item crosses a proofrpc
	// frame boundary regardless of where its worker runs.
	var wg sync.WaitGroup
	for i := 0; i < *workers; i++ {
		mside, wside := net.Pipe()
		go mgr.ServeConn(mside)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fuzzcamp.RunWorker(ctx, wside, exec)
		}()
	}
	if *listen != "" {
		network, addr, err := proofrpc.ParseAddr(*listen)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			fatal(err)
		}
		go mgr.Serve(ln)
	}

	select {
	case <-mgr.Done():
	case <-ctx.Done():
		mgr.Stop()
	}
	wg.Wait()
	stats := mgr.Stats(*workers)
	if *corpusDir != "" {
		if err := mgr.SaveState(*corpusDir); err != nil {
			fatal(err)
		}
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign done: %d execs in %d rounds (%.0f/sec), coverage %d bits, corpus %d, failures %d seen / %d unique\n",
			stats.Execs, stats.Rounds, stats.ExecsPerSec, stats.CoverageBits, stats.CorpusSize, stats.FailuresSeen, stats.UniqueFailures)
		for _, f := range stats.Failures {
			fmt.Fprintf(os.Stderr, "  FAILURE %s (%d insns, round %d) %s\n", f.Key, f.Insns, f.Round, f.File)
		}
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fatal(err)
		}
	}
	if stats.UniqueFailures > 0 {
		os.Exit(1)
	}
}
