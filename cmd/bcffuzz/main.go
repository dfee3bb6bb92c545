// Command bcffuzz runs the coverage-guided soundness campaign
// (internal/fuzzcamp): feedback-driven mutation fuzzing of the verifier
// against the three differential oracles, on a local worker pool.
//
// Usage:
//
//	bcffuzz -execs 256 -workers 4 -json -          # bounded local campaign
//	bcffuzz -duration 3m -promote out/ -json stats.json   # nightly shape
//	bcffuzz -corpus-dir state/ ...                 # resume + save corpus coverage
//	bcffuzz -sabotage collapse-add -stop-on-failure       # detection drill
//	bcffuzz -remote unix:/run/bcfd.sock ...        # prove via bcfd (comma-separated = fleet)
//
// The campaign is deterministic for a fixed -seed and -execs budget at
// any -workers count. Exit status: 0 clean, 1 oracle violations found,
// 2 usage or runtime error (including a reproducer that could not be
// promoted; -json is still written first).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bcf/internal/fuzzcamp"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
	"bcf/internal/verifier"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcffuzz:", err)
	os.Exit(2)
}

func main() {
	var (
		seed       = flag.Int64("seed", 1, "campaign seed (fixed seed + fixed -execs = identical results at any -workers)")
		workers    = flag.Int("workers", 4, "local worker pool size (<= 0 = 4)")
		execs      = flag.Int("execs", 0, "total exec budget (0 = unbounded when -duration set, else one round)")
		rounds     = flag.Int("rounds", 0, "round budget (overrides -execs when set)")
		batch      = flag.Int("batch", 32, "work items per campaign round")
		duration   = flag.Duration("duration", 0, "wall-clock budget (stops at the next round boundary)")
		inputs     = flag.Int("inputs", 0, "interpreter samples per oracle (0 = default)")
		advEvery   = flag.Int("adversary-every", 4, "run the checker-adversary oracle on every Nth item (<0 = never)")
		minBudget  = flag.Int("minimize-budget", 0, "oracle evaluations per failure minimization (0 = default)")
		stopOnFail = flag.Bool("stop-on-failure", false, "finish after the first failing item (deterministic item order)")
		sabotage   = flag.String("sabotage", "", "plant a verifier bug for a detection drill: collapse-add | skip-mem-bounds")
		promote    = flag.String("promote", "", "directory for minimized .bpfasm reproducers")
		corpusDir  = flag.String("corpus-dir", "", "directory for cross-process corpus state: resume coverage from it, save back on exit")
		remote     = flag.String("remote", "", "bcfd endpoint(s) for remote proving (comma-separated = fleet)")
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

	opt := fuzzcamp.Options{
		Seed:           *seed,
		Rounds:         *rounds,
		Execs:          *execs,
		Batch:          *batch,
		AdversaryEvery: *advEvery,
		StopOnFailure:  *stopOnFail,
		MinimizeBudget: *minBudget,
		PromoteDir:     *promote,
		Workers:        *workers,
		Exec: fuzzcamp.ExecOptions{
			Inputs:   *inputs,
			Sabotage: sab,
			Remote:   remoteProver,
		},
		Obs: reg,
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
	stats, runErr := camp.Run(ctx)
	if *corpusDir != "" {
		if err := camp.SaveState(*corpusDir); err != nil {
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
	if runErr != nil {
		fatal(runErr)
	}
	if stats.UniqueFailures > 0 {
		os.Exit(1)
	}
}
