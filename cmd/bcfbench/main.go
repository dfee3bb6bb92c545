// Command bcfbench regenerates the paper's evaluation (§6): it runs the
// 512-program dataset through the baseline verifier and through BCF, then
// prints every table and figure with the paper's reference values
// alongside the measured ones.
//
// The corpus programs are independent loads, so the run fans out across a
// worker pool sharing one proof cache (default parallelism: GOMAXPROCS).
// Aggregates are deterministic regardless of parallelism.
//
// Usage:
//
//	bcfbench                 # everything, parallel across all cores
//	bcfbench -parallel 1     # sequential run
//	bcfbench -table accept   # just the acceptance headline
//	bcfbench -table 1|2|3    # a specific table
//	bcfbench -fig 8          # the proof-size distribution
//	bcfbench -table duration # the §6.3 time split + wall-clock speedup
//	bcfbench -table cache    # shared proof-cache hit/miss statistics
//	bcfbench -n 96 -json out.json  # reduced-corpus smoke run, machine-readable
//	bcfbench -elf-dir dataset/ -json out.json  # evaluate a directory of ELF objects
//
// Remote proving (single daemon or a fleet):
//
//	bcfbench -remote unix:/run/bcfd.sock           # one daemon (a fleet of one)
//	bcfbench -remote unix:/a.sock,unix:/b.sock,unix:/c.sock   # three-daemon fleet
//
// Observability (the telemetry layer of internal/obs):
//
//	bcfbench -metrics                 # per-stage latency/traffic table + metrics block in -json
//	bcfbench -tracefile t.json        # Chrome trace-event timeline (open in ui.perfetto.dev);
//	                                  # with -remote it also holds the daemons' spans
//	bcfbench -cpuprofile cpu.pprof    # CPU profile of the run (go tool pprof)
//	bcfbench -memprofile mem.pprof    # heap profile after the run
//	bcfbench -listen :6060            # serve /metrics (Prometheus) + /debug/pprof while running
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"syscall"

	"bcf/internal/corpus"
	"bcf/internal/elf"
	"bcf/internal/eval"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
)

// benchReport is the machine-readable output of -json: the acceptance
// headline plus the timing and cache numbers that form the per-commit
// performance trajectory (BENCH_*.json).
type benchReport struct {
	// Run metadata: enough to interpret a BENCH_*.json without the
	// invocation that produced it.
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Remote      bool   `json:"remote"`
	RemoteAddr  string `json:"remote_addr,omitempty"`
	Corpus      int    `json:"corpus"`
	InsnLimit   int    `json:"insn_limit"`
	Parallelism int    `json:"parallelism"`
	WallMS      int64  `json:"wall_ms"`
	// ProgramMS sums per-program analysis time: the sequential-equivalent
	// wall clock. Speedup = program_ms / wall_ms.
	ProgramMS        int64   `json:"program_ms"`
	Speedup          float64 `json:"speedup"`
	BaselineAccepted int     `json:"baseline_accepted"`
	BCFAccepted      int     `json:"bcf_accepted"`
	WeakCondition    int     `json:"weak_condition"`
	InsnLimitReject  int     `json:"insn_limit_rejects"`
	Untriggered      int     `json:"untriggered"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	CacheEvictions   int     `json:"cache_evictions"`
	CacheSize        int     `json:"cache_size"`
	// Remote-proving outcome split (zero without -remote).
	RemoteProofs    int `json:"remote_proofs,omitempty"`
	RemoteFallbacks int `json:"remote_fallbacks,omitempty"`
	// Fleet routing and failover counters with -remote (one endpoint is
	// a fleet of one).
	Fleet *prooffleet.Stats `json:"fleet,omitempty"`
	// Cold/warm comparison of -coldwarm: the same corpus run twice.
	// Locally the runs share one proof cache; remotely each run gets a
	// fresh local cache so warm hits exercise the daemon's stores.
	ColdWallMS  int64   `json:"cold_wall_ms,omitempty"`
	WarmWallMS  int64   `json:"warm_wall_ms,omitempty"`
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`
	// Metrics is the telemetry snapshot (per-stage latency histograms,
	// pipeline counters) when the run had telemetry enabled (-metrics,
	// -tracefile or -listen).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

func main() {
	table := flag.String("table", "", "which table: accept|1|2|3|duration|zone|classes|cache (default all)")
	fig := flag.String("fig", "", "which figure: 8")
	limit := flag.Int("insn-limit", corpusInsnLimit(), "analyzed-instruction budget")
	src := flag.String("src", ".", "repository root (for Table 1 line counts)")
	quiet := flag.Bool("q", false, "suppress progress output")
	parallel := flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "write a machine-readable timing/acceptance report to this path")
	n := flag.Int("n", 0, "evaluate only the first N corpus programs (0 = all 512)")
	metrics := flag.Bool("metrics", false, "collect telemetry and print the per-stage metrics table")
	traceFile := flag.String("tracefile", "", "write a Chrome trace-event JSON timeline to this path (Perfetto-loadable)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile after the run to this path")
	listen := flag.String("listen", "", "serve /metrics (Prometheus text) and /debug/pprof on this address while running")
	remote := flag.String("remote", "", "prove via bcfd daemon(s): unix:/path or host:port, comma-separated for a fleet")
	coldwarm := flag.Bool("coldwarm", false, "run the corpus twice and report cold vs warm-cache timing")
	elfDir := flag.String("elf-dir", "", "evaluate a directory of ELF objects (.o) instead of the synthetic corpus")
	flag.Parse()

	wantAll := *table == "" && *fig == ""
	needRun := wantAll || *table == "accept" || *table == "3" || *table == "duration" ||
		*table == "classes" || *table == "cache" || *fig == "8" || *jsonPath != "" ||
		*metrics || *traceFile != "" || *coldwarm || *elfDir != ""

	// Telemetry is opt-in: with none of the observability flags set, the
	// registry and tracer stay nil and every instrumented path pays only
	// a nil check (the <2% throughput bound of the design). Enabling any
	// of them also arms the flight recorder, dumped on SIGQUIT and served
	// at /debug/journal.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics || *traceFile != "" || *listen != "" {
		reg = obs.NewRegistry()
		reg.SetJournal(obs.NewJournal(0))
		quitSig := make(chan os.Signal, 1)
		signal.Notify(quitSig, syscall.SIGQUIT)
		go func() {
			for range quitSig {
				fmt.Fprintln(os.Stderr, "bcfbench: SIGQUIT: flight recorder")
				reg.Journal().Dump(os.Stderr)
			}
		}()
	}
	if *traceFile != "" {
		tracer = obs.NewTracer().WithProcess(os.Getpid(), "bcfbench")
	}

	// -remote builds a prooffleet over its comma-separated endpoints (one
	// endpoint is a fleet of one) with rendezvous routing and failover.
	// It propagates the tracer's context on the wire, and each daemon's
	// reply carries back the spans it recorded under this run's trace ID,
	// already merged when the trace file is written.
	var remoteProver loader.RemoteProver
	var fleet *prooffleet.Fleet
	if *remote != "" {
		f, err := prooffleet.New(prooffleet.Options{
			Endpoints: prooffleet.SplitEndpoints(*remote),
			Obs:       reg,
			Trace:     tracer,
		})
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		fleet = f
		remoteProver = f
	}

	if *listen != "" {
		var fleetStats func() any
		if fleet != nil {
			fleetStats = func() any { return fleet.Stats() }
		}
		mux := obs.DebugMux(reg, fleetStats)
		go func() {
			if err := http.ListenAndServe(*listen, mux); err != nil {
				fmt.Fprintln(os.Stderr, "bcfbench: listen:", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serving /metrics, /debug/journal and /debug/pprof on %s\n", *listen)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			rpprof.StopCPUProfile()
			f.Close()
		}()
	}

	var ev *eval.Evaluation
	var coldWall, warmWall int64
	if needRun {
		progress := func(done, total int) {
			if !*quiet && done%64 == 0 {
				fmt.Fprintf(os.Stderr, "  ... %d/%d programs\n", done, total)
			}
		}
		if *quiet {
			progress = nil
		}
		var entries []corpus.Entry
		size := corpus.Size
		if *elfDir != "" {
			var err error
			entries, err = loadELFDir(*elfDir)
			if err != nil {
				fatal(err)
			}
			size = len(entries)
		}
		if *n > 0 && *n < size {
			size = *n
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running the %d-program evaluation (insn limit %d, parallelism %d)...\n",
				size, *limit, eval.Workers(*parallel, size))
		}
		runOnce := func(cache *loader.ProofCache) *eval.Evaluation {
			return eval.RunOpts(eval.Options{
				Entries:     entries,
				InsnLimit:   *limit,
				Parallelism: *parallel,
				Limit:       *n,
				Cache:       cache,
				Remote:      remoteProver,
				Progress:    progress,
				Obs:         reg,
				Trace:       tracer,
			})
		}
		if *coldwarm {
			// Locally the two runs share one proof cache, so the warm run
			// measures the in-process cache. Remotely each run gets a fresh
			// local cache: warm hits must come back over the wire from the
			// daemon's memory/disk stores.
			var shared *loader.ProofCache
			if remoteProver == nil {
				shared = loader.NewProofCache()
			}
			ev = runOnce(shared)
			coldWall = ev.WallClock.Milliseconds()
			warm := runOnce(shared)
			warmWall = warm.WallClock.Milliseconds()
			if !*quiet {
				fmt.Fprintf(os.Stderr, "cold run: %dms, warm run: %dms (%.2fx; remote=%v)\n",
					coldWall, warmWall, warmSpeedup(ev.WallClock.Nanoseconds(), warm.WallClock.Nanoseconds()),
					remoteProver != nil)
			}
		} else {
			ev = runOnce(nil)
		}
		if *jsonPath != "" {
			meta := reportMeta{
				remoteAddr: *remote,
				fleet:      fleet,
				coldWallMS: coldWall,
				warmWallMS: warmWall,
			}
			if err := writeJSON(*jsonPath, ev, reg, meta); err != nil {
				fmt.Fprintln(os.Stderr, "bcfbench:", err)
				os.Exit(1)
			}
		}
		if *traceFile != "" {
			if err := tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, "bcfbench: trace:", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (open in ui.perfetto.dev)\n",
					tracer.Len(), *traceFile)
			}
		}
	}

	printed := false
	show := func(name string, s string) {
		fmt.Println(s)
		printed = true
		_ = name
	}
	if wantAll || *table == "accept" {
		show("accept", ev.AcceptanceTable())
	}
	if wantAll || *table == "1" {
		show("1", eval.Table1String(*src))
	}
	if wantAll || *table == "2" {
		show("2", eval.Table2String())
	}
	if wantAll || *table == "3" {
		show("3", ev.Table3String())
	}
	if wantAll || *fig == "8" {
		show("8", ev.Figure8String())
	}
	if wantAll || *table == "duration" {
		show("duration", ev.DurationString())
	}
	if wantAll || *table == "classes" {
		show("classes", ev.ClassBreakdownString())
	}
	if wantAll || *table == "cache" {
		show("cache", ev.CacheTableString())
	}
	if wantAll || *table == "zone" {
		show("zone", eval.ZoneTable())
	}
	if *metrics {
		show("metrics", reg.Snapshot().TableString())
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := rpprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if !printed {
		if *jsonPath != "" || *traceFile != "" {
			return // a pure machine-readable run selected nothing to print
		}
		fmt.Fprintln(os.Stderr, "nothing selected; see -h")
		os.Exit(2)
	}
}

// reportMeta carries the invocation context into the JSON report.
type reportMeta struct {
	remoteAddr string
	fleet      *prooffleet.Fleet
	coldWallMS int64
	warmWallMS int64
}

func writeJSON(path string, ev *eval.Evaluation, reg *obs.Registry, meta reportMeta) error {
	acc := ev.Acceptance()
	var programNS int64
	for _, r := range ev.Results {
		programNS += r.TotalTime.Nanoseconds()
	}
	rep := benchReport{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Remote:           meta.remoteAddr != "",
		RemoteAddr:       meta.remoteAddr,
		Corpus:           len(ev.Results),
		InsnLimit:        ev.InsnLimit,
		Parallelism:      ev.Parallelism,
		WallMS:           ev.WallClock.Milliseconds(),
		ProgramMS:        programNS / 1e6,
		BaselineAccepted: acc.BaselineAccepted,
		BCFAccepted:      acc.BCFAccepted,
		WeakCondition:    acc.WeakCondition,
		InsnLimitReject:  acc.InsnLimit,
		Untriggered:      acc.Untriggered,
		CacheHits:        ev.Cache.Hits,
		CacheMisses:      ev.Cache.Misses,
		CacheHitRate:     ev.Cache.HitRate(),
		CacheEvictions:   ev.Cache.Evictions,
		CacheSize:        ev.Cache.Size,
		RemoteProofs:     ev.RemoteProofs,
		RemoteFallbacks:  ev.RemoteFallbacks,
		ColdWallMS:       meta.coldWallMS,
		WarmWallMS:       meta.warmWallMS,
	}
	if meta.fleet != nil {
		stats := meta.fleet.Stats()
		rep.Fleet = &stats
	}
	if meta.warmWallMS > 0 {
		rep.WarmSpeedup = warmSpeedup(meta.coldWallMS, meta.warmWallMS)
	}
	if reg != nil {
		rep.Metrics = reg.Snapshot()
	}
	if ev.WallClock > 0 {
		rep.Speedup = float64(programNS) / float64(ev.WallClock.Nanoseconds())
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadELFDir parses every .o object in dir (sorted by name) into corpus
// entries — one per program section — so the ELF frontend feeds the same
// evaluation pipeline as the synthetic corpus.
func loadELFDir(dir string) ([]corpus.Entry, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var entries []corpus.Entry
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".o") {
			continue
		}
		path := dir + string(os.PathSeparator) + f.Name()
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		obj, err := elf.ParseObject(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range obj.Programs {
			entries = append(entries, corpus.Entry{
				Index:   len(entries),
				Project: "elf-dir",
				Source:  f.Name(),
				Variant: p.Name,
				Prog:    p,
			})
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no .o objects found in %s", dir)
	}
	return entries, nil
}

// warmSpeedup is cold/warm, guarded against a zero warm measurement.
func warmSpeedup(cold, warm int64) float64 {
	if warm <= 0 {
		return 0
	}
	return float64(cold) / float64(warm)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcfbench:", err)
	os.Exit(1)
}

// corpusInsnLimit mirrors the scaled-down budget used by the test suite;
// see EXPERIMENTS.md for the rationale.
func corpusInsnLimit() int { return 4000 }
