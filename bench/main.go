// Command bench is the repository benchmark. It drives loader.Load from
// a closed loop of clients on one of four workloads and reports the
// end-to-end metrics of BENCHMARK.json; with -trace 1 it instead runs
// one client through a recomposition of the load pipeline, built from
// public entry points, and reports a per-layer ledger. See README.md.
//
//	go run . -workload corpus-eval -seed 1 -seconds 25 -trace 0
//	go run . -compare SETA SETB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full report, with
// provenance, is written to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bcf/internal/loader"
	"bcf/internal/obs"
)

var processStart = time.Now()

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the untraced metrics, measured over the closed-loop
// window except setup_s.
var endToEnd = []metricDef{
	{"loads_per_s", "1/s", "higher", 0.25},
	{"load_p50_ms", "ms", "lower", 0.25},
	{"load_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_load", "ms", "lower", 0.25},
	{"alloc_kb_per_load", "KiB", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "verifier.walk_us_per_load", unit: "us", better: "lower"},
	{name: "verifier.ns_per_insn", unit: "ns", better: "lower"},
	{name: "verifier.allocs_per_insn", unit: "count", better: "lower"},
	{name: "verifier.insns_per_load", unit: "count", better: "lower"},
	{name: "verifier.paths_per_load", unit: "count", better: "lower"},
	{name: "verifier.pruned_per_load", unit: "count", better: "higher"},
	{name: "bcf.refine_self_us_per_load", unit: "us", better: "lower"},
	{name: "bcf.refine_self_us_p99", unit: "us", better: "lower"},
	{name: "bcf.refine_per_load", unit: "count", better: "lower"},
	{name: "bcf.refine_grant_ratio", unit: "ratio", better: "higher"},
	{name: "proof.check_us_per_round", unit: "us", better: "lower"},
	{name: "proof.check_us_p99", unit: "us", better: "lower"},
	{name: "proof.check_ns_per_byte", unit: "ns/B", better: "lower"},
	{name: "bcfenc.codec_us_per_round", unit: "us", better: "lower"},
	{name: "bcfenc.cond_bytes_per_round", unit: "B", better: "lower"},
	{name: "bcfenc.proof_bytes_per_round", unit: "B", better: "lower"},
	{name: "loader.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "loader.cache_coalesced", unit: "count", better: "higher"},
	{name: "loader.escalations", unit: "count", better: "lower"},
	{name: "solver.prove_us_per_load", unit: "us", better: "lower"},
	{name: "solver.prove_per_load", unit: "count", better: "lower"},
	{name: "solver.rewrite_ratio", unit: "ratio", better: "higher"},
	{name: "solver.counterexample_ratio", unit: "ratio", better: "lower"},
	{name: "bitblast.encode_us_per_solve", unit: "us", better: "lower"},
	{name: "bitblast.clauses_per_solve", unit: "count", better: "lower"},
	{name: "sat.solve_us_per_solve", unit: "us", better: "lower"},
	{name: "sat.resolution_steps_per_solve", unit: "count", better: "lower"},
	{name: "prooffleet.rtt_us_p50", unit: "us", better: "lower"},
	{name: "prooffleet.rtt_us_p99", unit: "us", better: "lower"},
	{name: "prooffleet.failovers", unit: "count", better: "lower"},
	{name: "proofd.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "ledger.load_us_per_load", unit: "us", better: "lower"},
	{name: "ledger.kernel_share", unit: "ratio", better: "lower"},
	{name: "ledger.trace_overhead_pct", unit: "%", better: "lower"},
}

// setUps is how many times an end-to-end run sets up; setup_s is the
// median, which a single slow set-up on a shared host does not move.
const setUps = 5

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// runOpts are the flags of one run. setups is setUps except in tests,
// which keep runs short.
type runOpts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int
	out      string
}

// clients is the closed loop's client count: one per CPU.
func clients() int { return runtime.NumCPU() }

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance records where and what a run measured.
type provenance struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified string `json:"vcs_modified,omitempty"`
	Started     string `json:"started"`
}

func newProvenance() provenance {
	p := provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Started: processStart.UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// report is the full record of one run, written to -out.
type report struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"` // "e2e" or "trace"
	Seed     int64   `json:"seed"`
	SeedNote string  `json:"seed_note,omitempty"`
	WindowS  float64 `json:"window_s"`
	Clients  int     `json:"clients"`
	// Loads counts the loads attempted in the window (both passes of a
	// traced run); the fault log counts failures, set-up included.
	Loads int `json:"loads"`
	faultLog
	// PassVerdicts are the verdict totals every finished pass reproduced;
	// PassesChecked counts those passes, set-up passes included.
	PassVerdicts      map[string]int `json:"pass_verdicts"`
	PassesChecked     int            `json:"passes_checked"`
	PercentileSamples map[string]int `json:"percentile_samples"`
	// SetupEachS are the set-up times scaled to the reference speed,
	// SetupUnscaledS the same as measured.
	SetupEachS     []float64 `json:"setup_each_s"`
	SetupUnscaledS []float64 `json:"setup_unscaled_s"`
	// CalibrationMS is every calibration's time: one before each set-up
	// and each slice of the window, and one after the last slice.
	CalibrationMS []float64 `json:"calibration_ms"`
	// Slices are the window's slices as measured.
	Slices          []sliceRecord `json:"slices,omitempty"`
	FirstTimedLoadS float64       `json:"first_timed_load_s"`
	Layers          []layerRow    `json:"layers,omitempty"`
	// FidelityChecked counts the traced loads compared with loader.Load.
	FidelityChecked int                    `json:"fidelity_checked,omitempty"`
	TraceFile       string                 `json:"trace_file,omitempty"`
	Provenance      provenance             `json:"provenance"`
	Metrics         map[string]metricValue `json:"metrics"`
	// Unscaled are the end-to-end metrics as measured, before scaling to
	// the reference speed.
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	Correct  bool               `json:"correct"`
}

// checkPasses compares every finished pass's verdict totals with the
// workload's known answers.
func (rep *report) checkPasses(w *workload, passes []tally) {
	want := w.expectedTally()
	rep.PassVerdicts = want.named()
	for _, got := range passes {
		rep.PassesChecked++
		if got != want {
			rep.note(fmt.Sprintf("pass verdict totals %v, want %v", got.named(), want.named()))
		}
	}
}

func (rep *report) set(defs []metricDef, values map[string]float64) {
	rep.Metrics = map[string]metricValue{}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

// setUp builds the workload and its rig, then runs one untimed warm-up
// pass through them: corpus generation, daemon start and warm caches
// all land here, before the first timed load.
func setUp(o runOpts, rep int) (*workload, *rig, *closedLoop, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := newRig(w)
	if err != nil {
		return nil, nil, nil, err
	}
	warm := &closedLoop{w: w, rig: r, seed: o.seed, stream: uint64(16 + rep),
		clients: clients(), limit: len(w.pass)}
	warm.run()
	return w, r, warm, nil
}

// setUpAll sets up o.setups times, keeping the last rig, and records
// each set-up's duration. A calibration mark precedes each set-up.
func setUpAll(o runOpts, rep *report, cal *calibrator) (*workload, *rig, error) {
	var (
		w      *workload
		r      *rig
		passes []tally
	)
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.close()
		}
		cal.mark()
		t0 := time.Now()
		var warm *closedLoop
		var err error
		w, r, warm, err = setUp(o, i)
		if err != nil {
			return nil, nil, err
		}
		rep.SetupUnscaledS = append(rep.SetupUnscaledS, time.Since(t0).Seconds())
		passes = append(passes, warm.complete...)
		rep.merge(warm.faultLog)
	}
	rep.checkPasses(w, passes)
	rep.SeedNote = w.seedNote
	return w, r, nil
}

// timings collects a window's timings under one scale: each load's
// latency, and each slice's loads per second and CPU time per load.
type timings struct {
	latMS, perS, cpuMS []float64
}

func (t *timings) add(s slice, scale float64) {
	for _, d := range s.lat {
		t.latMS = append(t.latMS, float64(d.Nanoseconds())/1e6*scale)
	}
	n := float64(len(s.lat))
	t.perS = append(t.perS, n/(s.elapsed.Seconds()*scale))
	t.cpuMS = append(t.cpuMS, float64(s.cpu.Nanoseconds())/1e6*scale/n)
}

// metrics are the end-to-end metrics: the latency percentiles over every
// load, the medians of the per-slice rates.
func (t *timings) metrics(setupS []float64, allocKB float64) map[string]float64 {
	sort.Float64s(t.latMS)
	return map[string]float64{
		"loads_per_s":       median(t.perS),
		"load_p50_ms":       percentile(t.latMS, 0.50),
		"load_p99_ms":       percentile(t.latMS, 0.99),
		"cpu_ms_per_load":   median(t.cpuMS),
		"alloc_kb_per_load": allocKB,
		"setup_s":           median(setupS),
	}
}

// slice is one stretch of a window as measured.
type slice struct {
	lat          []time.Duration
	elapsed, cpu time.Duration
}

// sliceRecord is a slice in the report, unscaled.
type sliceRecord struct {
	Loads    int     `json:"loads"`
	ElapsedS float64 `json:"elapsed_s"`
	CPUMS    float64 `json:"cpu_ms"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

func (s slice) record() sliceRecord {
	ms := make([]float64, len(s.lat))
	for i, d := range s.lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return sliceRecord{Loads: len(s.lat), ElapsedS: s.elapsed.Seconds(),
		CPUMS: float64(s.cpu.Nanoseconds()) / 1e6,
		P50MS: percentile(ms, 0.50), P99MS: percentile(ms, 0.99)}
}

// runE2E measures the end-to-end metrics over one closed-loop window,
// cut into slices of at most sliceLen with calibration marks between
// them.
func runE2E(o runOpts) (*report, error) {
	rep := &report{Workload: o.workload, Mode: "e2e", Seed: o.seed,
		WindowS: o.window.Seconds(), Clients: clients(), Provenance: newProvenance()}
	cal := newCalibrator(clients())
	w, r, err := setUpAll(o, rep, cal)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setupPasses := rep.PassesChecked

	allocs := newHeapCounter("/gc/heap/allocs:bytes")
	rep.FirstTimedLoadS = time.Since(processStart).Seconds()
	loop := &closedLoop{w: w, rig: r, seed: o.seed, stream: 1, clients: clients()}
	nSlices := int(math.Ceil(float64(o.window) / float64(sliceLen)))
	var slices []slice
	var alloc uint64
	for range nSlices {
		cal.mark()
		cpu0, alloc0, t0 := cpuTime(), allocs.read(), time.Now()
		loop.deadline = t0.Add(o.window / time.Duration(nSlices))
		lat := loop.run()
		slices = append(slices, slice{lat: lat, elapsed: time.Since(t0), cpu: cpuTime() - cpu0})
		alloc += allocs.read() - alloc0
		rep.Loads += len(lat)
	}
	cal.mark()

	// Marks 0..setups-1 precede the set-ups, the next ones the slices.
	for i, d := range rep.SetupUnscaledS {
		rep.SetupEachS = append(rep.SetupEachS, d*cal.factor(i))
	}
	var scaled, unscaled timings
	for i, s := range slices {
		rep.Slices = append(rep.Slices, s.record())
		if len(s.lat) > 0 {
			scaled.add(s, cal.factor(len(rep.SetupUnscaledS)+i))
			unscaled.add(s, 1)
		}
	}
	rep.CalibrationMS = cal.ms

	rep.merge(loop.faultLog)
	rep.checkPasses(w, loop.complete)
	rep.PassesChecked += setupPasses
	rep.PercentileSamples = map[string]int{"load_p50_ms": rep.Loads, "load_p99_ms": rep.Loads}
	allocKB := float64(alloc) / 1024 / float64(max(rep.Loads, 1))
	rep.set(endToEnd, scaled.metrics(rep.SetupEachS, allocKB))
	rep.Unscaled = unscaled.metrics(rep.SetupUnscaledS, allocKB)
	return rep, nil
}

// runTrace measures the per-layer ledger. Until the window closes it
// alternates two passes over the same seed-permuted load list on one
// client: loader.Load untraced, for the overhead reference, then the
// traced recomposition, each load of which must match its loader.Load
// twin (diverges). Only the first traced pass goes to the Perfetto
// file, which keeps it to one pass of spans.
func runTrace(o runOpts) (*report, error) {
	o.setups = 1
	rep := &report{Workload: o.workload, Mode: "trace", Seed: o.seed,
		WindowS: o.window.Seconds(), Clients: 1, Provenance: newProvenance()}
	w, r, err := setUpAll(o, rep, newCalibrator(clients()))
	if err != nil {
		return nil, err
	}
	defer r.close()
	setupPasses := rep.PassesChecked

	timeline := obs.NewTracer()
	t := newTracer(w, nil, r)
	t.timeline = timeline
	var failovers0 int64
	var pd0 loader.CacheStats
	if r.fleet != nil {
		failovers0, pd0 = r.fleet.Stats().Failovers, r.server.Cache().Snapshot()
	}
	rep.FirstTimedLoadS = time.Since(processStart).Seconds()
	var untraced []float64
	var passes []tally
	refs := make([]reference, len(w.pass))
	deadline := time.Now().Add(o.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		perm := permutation(o.seed, 2, pass, len(w.pass))
		var plain, traced tally
		var cache *loader.ProofCache
		if w.cached {
			cache, t.p.cache = loader.NewProofCache(), loader.NewProofCache()
		}
		for _, k := range perm {
			e := w.pass[k]
			hook := &recordConds{}
			opts := w.options(cache, r)
			opts.Fault = hook
			t0 := time.Now()
			res := loader.Load(e.prog, opts)
			untraced = append(untraced, us(time.Since(t0)))
			refs[k] = reference{res: res, conds: hook.conds}
			got := outcome(res.Accepted, res.Err, res.Rounds)
			plain[got]++
			rep.note(fault(e, got, res.Err, res.RemoteFallbacks))
		}
		for _, k := range perm {
			e := w.pass[k]
			lt := t.load(e)
			traced[outcome(lt.accepted, lt.err, len(lt.rounds))]++
			msg := lt.fault
			if msg == "" {
				msg = diverges(e.prog.Name, refs[k], lt)
			}
			rep.note(msg)
			rep.FidelityChecked++
		}
		passes = append(passes, plain, traced)
		t.timeline = nil
	}

	rep.Loads = len(untraced) + t.led.loads
	rep.checkPasses(w, passes)
	rep.PassesChecked += setupPasses
	var failovers int64
	proofdHits := 0.0
	if r.fleet != nil {
		failovers = r.fleet.Stats().Failovers - failovers0
		pd := r.server.Cache().Snapshot()
		proofdHits = ratio(float64(pd.Hits-pd0.Hits), float64(pd.Hits+pd.Misses-pd0.Hits-pd0.Misses))
	}
	base := median(untraced)
	overhead := ratio(median(t.led.loadUS)-base, base) * 100
	rep.set(perLayer, t.led.metrics(t.p, failovers, proofdHits, overhead))
	rep.Layers = t.led.rows()
	rep.PercentileSamples = map[string]int{
		"bcf.refine_self_us_p99": len(t.led.refineSelfUS),
		"proof.check_us_p99":     len(t.led.checkUS),
		"prooffleet.rtt_us_p50":  len(t.p.rttUS),
		"prooffleet.rtt_us_p99":  len(t.p.rttUS),
		"untraced_median":        len(untraced),
		"traced_median":          len(t.led.loadUS),
	}
	rep.TraceFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d.perfetto.json", o.workload, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	if err := timeline.WriteFile(rep.TraceFile); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return rep, nil
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func run(o runOpts) (*report, error) {
	var rep *report
	var err error
	if o.trace {
		rep, err = runTrace(o)
	} else {
		rep, err = runE2E(o)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Loads > 0
	return rep, nil
}

// writeReport saves the full report under o.out.
func writeReport(o runOpts, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s.json", rep.Workload, rep.Seed, rep.Mode))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var o runOpts
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: corpus-eval, bitblast-cold, path-explosion or remote-daemon")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the per-pass load order")
	flag.Float64Var(&seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end window")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "directory for the full report and the Perfetto trace")
	compare := flag.Bool("compare", false, "compare two directories of reports against the bounds in BENCHMARK.json: -compare SETA SETB")
	flag.Parse()
	o.setups = setUps

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare SETA SETB")
			os.Exit(2)
		}
		ok, err := compareSets(os.Stdout, specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.workload == "" || flag.NArg() != 0 || seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := writeReport(o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing report:", err)
		os.Exit(1)
	}
	for _, f := range rep.Faults {
		fmt.Fprintln(os.Stderr, "fault:", f)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Loads, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}
