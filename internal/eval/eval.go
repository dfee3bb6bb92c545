// Package eval runs the paper's evaluation (§6) over the generated
// dataset and renders every table and figure: the acceptance headline,
// Table 1 (implementation size), Table 2 (dataset details), Table 3
// (component metrics), Figure 8 (proof size distribution) and the §6.3
// analysis-duration split. Both cmd/bcfbench and the repository's
// benchmark suite drive it.
package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/verifier"
)

// ProgramResult is one dataset program's outcome under BCF.
type ProgramResult struct {
	Entry    corpus.Entry
	Accepted bool
	Err      error
	ErrClass bcferr.Class

	Refinements    int
	Requests       int
	TrackLens      []int
	CondSizes      []int
	ProofSizes     []int
	CheckDurations []time.Duration

	// Wire totals from the session's per-round traffic ledger (the
	// single source of truth; see bcf.Session.Rounds).
	CondBytes  int
	ProofBytes int

	KernelTime time.Duration
	UserTime   time.Duration
	TotalTime  time.Duration

	InsnProcessed int

	// RemoteProofs/RemoteFallbacks count obligations proven by the
	// remote daemon versus degraded to the in-process solver.
	RemoteProofs    int
	RemoteFallbacks int
}

// Evaluation aggregates the full run.
type Evaluation struct {
	Results   []ProgramResult
	InsnLimit int
	Baseline  []bool // per-entry baseline acceptance (expected all-false)

	// Parallelism is the worker count the run actually used.
	Parallelism int
	// WallClock is the elapsed time of the whole run; with Parallelism
	// workers it is less than the sum of per-program TotalTimes.
	WallClock time.Duration
	// Cache is the final snapshot of the shared proof cache.
	Cache loader.CacheStats
	// RemoteProofs/RemoteFallbacks total the per-program
	// remote-proving counters (zero when the run had no remote prover).
	RemoteProofs    int
	RemoteFallbacks int
}

// Options configure an evaluation run.
type Options struct {
	// Entries overrides the program set (nil = the generated corpus).
	// The ELF benchmark mode uses this to evaluate a directory of parsed
	// objects through the identical pipeline.
	Entries []corpus.Entry
	// InsnLimit is the analyzed-instruction budget per load.
	InsnLimit int
	// Parallelism is the worker-pool size; <=0 selects
	// runtime.GOMAXPROCS(0). Corpus programs are independent loads, so
	// they fan out across workers; Results and Baseline stay in corpus
	// order regardless.
	Parallelism int
	// Cache is the proof cache shared by all workers (and by each
	// worker's baseline+BCF load pair). nil allocates a fresh cache for
	// the run. Sharing one cache across programs lets identical
	// refinement conditions — the verifier's analysis is a pure function
	// of the program, so condition bytes repeat across structurally
	// similar corpus entries — skip the solver entirely.
	Cache *loader.ProofCache
	// Limit restricts the run to the first Limit corpus entries
	// (0 = full dataset); used by smoke tests and CI.
	Limit int
	// Remote, when non-nil, proves refinement conditions via a proving
	// daemon (remote-first, transparent fallback to the in-process
	// solver on transport failure). All workers share the client.
	Remote loader.RemoteProver
	// Progress, when non-nil, is called after each program completes.
	// Calls are serialized and done is monotonically increasing.
	Progress func(done, total int)
	// Obs, when non-nil, aggregates per-stage latency histograms and
	// pipeline counters across every load of the run (all workers share
	// it; the registry is concurrency-safe).
	Obs *obs.Registry
	// Trace, when non-nil, records the span timeline of every load; each
	// corpus program becomes one trace process, keyed by corpus index.
	Trace *obs.Tracer
}

// Run executes the acceptance experiment over the whole dataset with the
// default worker pool. progress may be nil.
func Run(insnLimit int, progress func(done, total int)) *Evaluation {
	return RunOpts(Options{InsnLimit: insnLimit, Progress: progress})
}

// RunOpts executes the acceptance experiment with explicit options,
// fanning the corpus out across a bounded worker pool. Each worker runs
// whole programs (the baseline load followed by the BCF load), all
// workers share one proof cache, and every aggregate is deterministic:
// Results and Baseline are indexed by corpus position, so the tables and
// figures are identical to a sequential run.
func RunOpts(opts Options) *Evaluation {
	entries := opts.Entries
	if entries == nil {
		entries = corpus.Generate()
	}
	if opts.Limit > 0 && opts.Limit < len(entries) {
		entries = entries[:opts.Limit]
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(entries) && len(entries) > 0 {
		par = len(entries)
	}
	cache := opts.Cache
	if cache == nil {
		cache = loader.NewProofCache()
	}

	ev := &Evaluation{
		InsnLimit:   opts.InsnLimit,
		Parallelism: par,
		Results:     make([]ProgramResult, len(entries)),
		Baseline:    make([]bool, len(entries)),
	}
	start := time.Now()

	var (
		progressMu sync.Mutex
		done       int
	)
	finished := func() {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		opts.Progress(done, len(entries))
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				e := entries[i]
				var tr *obs.Tracer
				if opts.Trace != nil {
					tr = opts.Trace.WithProcess(i+1,
						fmt.Sprintf("%s/%s/%s", e.Project, e.Source, e.Variant))
				}
				base := loader.Load(e.Prog, loader.Options{
					Verifier:   verifier.Config{InsnLimit: opts.InsnLimit},
					ProofCache: cache,
					Obs:        opts.Obs,
					Trace:      tr,
				})
				ev.Baseline[i] = base.Accepted
				res := loader.Load(e.Prog, loader.Options{
					EnableBCF:  true,
					Verifier:   verifier.Config{InsnLimit: opts.InsnLimit},
					ProofCache: cache,
					Remote:     opts.Remote,
					Obs:        opts.Obs,
					Trace:      tr,
				})
				ev.Results[i] = newProgramResult(e, res)
				finished()
			}
		}()
	}
	for i := range entries {
		work <- i
	}
	close(work)
	wg.Wait()

	ev.WallClock = time.Since(start)
	ev.Cache = cache.Snapshot()
	for _, r := range ev.Results {
		ev.RemoteProofs += r.RemoteProofs
		ev.RemoteFallbacks += r.RemoteFallbacks
	}
	return ev
}

// newProgramResult flattens one load result into the evaluation row.
func newProgramResult(e corpus.Entry, res *loader.Result) ProgramResult {
	pr := ProgramResult{
		Entry:           e,
		Accepted:        res.Accepted,
		Err:             res.Err,
		ErrClass:        res.ErrClass,
		CondBytes:       res.CondBytes,
		ProofBytes:      res.ProofBytes,
		KernelTime:      res.KernelTime,
		UserTime:        res.UserTime,
		TotalTime:       res.TotalTime,
		InsnProcessed:   res.VerifierStats.InsnProcessed,
		RemoteProofs:    res.RemoteProofs,
		RemoteFallbacks: res.RemoteFallbacks,
	}
	if res.RefineStats != nil {
		pr.Refinements = res.RefineStats.Granted
		pr.Requests = len(res.RefineStats.Requests)
		for _, q := range res.RefineStats.Requests {
			pr.TrackLens = append(pr.TrackLens, q.TrackLen)
			pr.CondSizes = append(pr.CondSizes, q.CondBytes)
			if q.ProofBytes > 0 {
				pr.ProofSizes = append(pr.ProofSizes, q.ProofBytes)
				pr.CheckDurations = append(pr.CheckDurations, q.CheckDuration)
			}
		}
	}
	return pr
}

// ---- §6.2 acceptance headline ----

// AcceptanceSummary mirrors the paper's headline numbers.
type AcceptanceSummary struct {
	Total            int
	BaselineAccepted int
	BCFAccepted      int
	WeakCondition    int
	InsnLimit        int
	Untriggered      int
}

// Acceptance computes the headline summary.
func (ev *Evaluation) Acceptance() AcceptanceSummary {
	s := AcceptanceSummary{Total: len(ev.Results)}
	for i, r := range ev.Results {
		if ev.Baseline[i] {
			s.BaselineAccepted++
		}
		if r.Accepted {
			s.BCFAccepted++
			continue
		}
		switch r.Entry.Expect {
		case corpus.ExpectRejectWeakCond:
			s.WeakCondition++
		case corpus.ExpectRejectInsnLimit:
			s.InsnLimit++
		case corpus.ExpectRejectUntriggered:
			s.Untriggered++
		default:
			// An expected-accept that failed: count it by observed cause.
			if r.Requests == 0 {
				s.Untriggered++
			} else {
				s.WeakCondition++
			}
		}
	}
	return s
}

// AcceptanceTable renders the §6.2 comparison.
func (ev *Evaluation) AcceptanceTable() string {
	s := ev.Acceptance()
	var b strings.Builder
	fmt.Fprintf(&b, "Acceptance over the %d-program dataset (paper §6.2)\n", s.Total)
	fmt.Fprintf(&b, "  %-34s %5s   %s\n", "verifier", "count", "rate")
	fmt.Fprintf(&b, "  %-34s %5d   %4.1f%%   (paper: 0)\n",
		"baseline (in-tree, tnum+intervals)", s.BaselineAccepted, pct(s.BaselineAccepted, s.Total))
	fmt.Fprintf(&b, "  %-34s %5d   %4.1f%%   (paper: 403 = 78.7%%)\n",
		"BCF (proof-guided refinement)", s.BCFAccepted, pct(s.BCFAccepted, s.Total))
	fmt.Fprintf(&b, "  remaining rejections by cause:\n")
	fmt.Fprintf(&b, "    %-32s %5d   %4.1f%%   (paper: 82 = 16%%)\n",
		"weakened refinement condition", s.WeakCondition, pct(s.WeakCondition, s.Total))
	fmt.Fprintf(&b, "    %-32s %5d   %4.1f%%   (paper: 23 = 4.5%%)\n",
		"instruction limit (loops)", s.InsnLimit, pct(s.InsnLimit, s.Total))
	fmt.Fprintf(&b, "    %-32s %5d   %4.1f%%   (paper: 4 = 0.8%%)\n",
		"refinement not triggered", s.Untriggered, pct(s.Untriggered, s.Total))
	return b.String()
}

// ClassBreakdown buckets every rejection by its structured error class
// (the taxonomy the hardened protocol loop attaches to failures). Accepted
// programs land in ClassNone, so the counts always sum to the total.
func (ev *Evaluation) ClassBreakdown() map[bcferr.Class]int {
	out := map[bcferr.Class]int{}
	for _, r := range ev.Results {
		out[r.ErrClass]++
	}
	return out
}

// ClassBreakdownString renders the §6.2-style rejection buckets keyed by
// error class instead of expected outcome.
func (ev *Evaluation) ClassBreakdownString() string {
	bd := ev.ClassBreakdown()
	total := len(ev.Results)
	var b strings.Builder
	b.WriteString("Rejection breakdown by structured error class\n")
	fmt.Fprintf(&b, "  %-18s %6s   %s\n", "class", "count", "share")
	fmt.Fprintf(&b, "  %-18s %6d   %4.1f%%\n", "accepted", bd[bcferr.ClassNone],
		pct(bd[bcferr.ClassNone], total))
	for _, c := range bcferr.Classes() {
		fmt.Fprintf(&b, "  %-18s %6d   %4.1f%%\n", c.String(), bd[c], pct(bd[c], total))
	}
	return b.String()
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// ---- Table 1: implementation size ----

// Table1Row is one component's line count.
type Table1Row struct {
	Component string
	Location  string
	Files     int
	Lines     int
}

// Table1 counts the shipped source per component, mirroring the paper's
// code-base overview. root is the repository root.
func Table1(root string) ([]Table1Row, error) {
	components := []struct{ name, dir, loc string }{
		{"Verifier", "internal/verifier", "Kernel space"},
		{"Proof Checker", "internal/proof", "Kernel space"},
		{"Refinement (BCF core)", "internal/bcf", "Kernel space"},
		{"Wire format (uapi)", "internal/bcfenc", "Shared"},
		{"Loader", "internal/loader", "User space"},
		{"Solver", "internal/solver", "User space"},
		{"SAT backend", "internal/sat", "User space"},
		{"Bit-blasting", "internal/bitblast", "Shared"},
		{"eBPF substrate", "internal/ebpf", "Substrate"},
		{"Terms", "internal/expr", "Shared"},
		{"tnum domain", "internal/tnum", "Kernel space"},
	}
	var rows []Table1Row
	for _, c := range components {
		files, lines, err := countGoLines(filepath.Join(root, c.dir))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{Component: c.name, Location: c.loc, Files: files, Lines: lines})
	}
	return rows, nil
}

func countGoLines(dir string) (files, lines int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, err
		}
		files++
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				lines++
			}
		}
	}
	return files, lines, nil
}

// Table1String renders Table 1.
func Table1String(root string) string {
	rows, err := Table1(root)
	if err != nil {
		return fmt.Sprintf("table 1 unavailable: %v", err)
	}
	var b strings.Builder
	b.WriteString("Table 1: code base of major components (non-test Go lines)\n")
	fmt.Fprintf(&b, "  %-24s %-14s %6s %8s\n", "Component", "Location", "Files", "Lines")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %-14s %6d %8d\n", r.Component, r.Location, r.Files, r.Lines)
		total += r.Lines
	}
	fmt.Fprintf(&b, "  %-24s %-14s %6s %8d\n", "Total", "", "", total)
	return b.String()
}

// ---- Table 2: dataset details ----

// Table2String renders the dataset overview (paper Table 2 analog).
func Table2String() string {
	entries := corpus.Generate()
	type agg struct {
		count    int
		insns    int
		minB     int
		maxB     int
		family   corpus.Family
		expected corpus.Outcome
	}
	byProject := map[string]*agg{}
	var order []string
	for _, e := range entries {
		a, ok := byProject[e.Project]
		if !ok {
			a = &agg{minB: 1 << 30, family: e.Family, expected: e.Expect}
			byProject[e.Project] = a
			order = append(order, e.Project)
		}
		nbytes := len(e.Prog.Insns) * 8
		a.count++
		a.insns += len(e.Prog.Insns)
		if nbytes < a.minB {
			a.minB = nbytes
		}
		if nbytes > a.maxB {
			a.maxB = nbytes
		}
	}
	var b strings.Builder
	b.WriteString("Table 2: dataset composition (512 objects from 8 pattern families)\n")
	fmt.Fprintf(&b, "  %-18s %-18s %6s %10s %12s  %s\n",
		"Project(analog)", "Family", "Count", "Size(B)", "AvgInsns", "Expected")
	for _, p := range order {
		a := byProject[p]
		fmt.Fprintf(&b, "  %-18s %-18s %6d %4d-%-5d %12.1f  %s\n",
			p, a.family, a.count, a.minB, a.maxB,
			float64(a.insns)/float64(a.count), a.expected)
	}
	return b.String()
}

// ---- Table 3: component metrics ----

// dist summarizes min/avg/max of a series.
type dist struct {
	Min, Max int64
	Avg      float64
	N        int
}

func distOf(vals []int64) dist {
	if len(vals) == 0 {
		return dist{}
	}
	d := dist{Min: vals[0], Max: vals[0], N: len(vals)}
	sum := int64(0)
	for _, v := range vals {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
		sum += v
	}
	d.Avg = float64(sum) / float64(len(vals))
	return d
}

// Table3 computes the component-wise metrics of §6.3.
func (ev *Evaluation) Table3() map[string]dist {
	var freq, track, cond, checkUS, psize []int64
	for _, r := range ev.Results {
		if r.Requests > 0 {
			freq = append(freq, int64(r.Requests))
		}
		for _, t := range r.TrackLens {
			track = append(track, int64(t))
		}
		for _, c := range r.CondSizes {
			cond = append(cond, int64(c))
		}
		for _, d := range r.CheckDurations {
			checkUS = append(checkUS, d.Microseconds())
		}
		for _, p := range r.ProofSizes {
			psize = append(psize, int64(p))
		}
	}
	return map[string]dist{
		"Refinement Frequency":   distOf(freq),
		"Symbolic Track Length":  distOf(track),
		"Condition Size (bytes)": distOf(cond),
		"Proof Check Time (µs)":  distOf(checkUS),
		"Proof Size (bytes)":     distOf(psize),
	}
}

// Table3String renders Table 3 with the paper's reference values.
func (ev *Evaluation) Table3String() string {
	t := ev.Table3()
	paper := map[string]string{
		"Refinement Frequency":   "1 / 446 / 16048",
		"Symbolic Track Length":  "7 / 102 / 373",
		"Condition Size (bytes)": "88 / 836 / 2128",
		"Proof Check Time (µs)":  "31 / 49 / 1845",
		"Proof Size (bytes)":     "136 / 541 / 46296",
	}
	keys := []string{
		"Refinement Frequency", "Symbolic Track Length",
		"Condition Size (bytes)", "Proof Check Time (µs)", "Proof Size (bytes)",
	}
	var b strings.Builder
	b.WriteString("Table 3: key metrics for each component of BCF\n")
	fmt.Fprintf(&b, "  %-24s %8s %10s %8s   %s\n", "Metric", "Min", "Avg", "Max", "Paper (min/avg/max)")
	for _, k := range keys {
		d := t[k]
		fmt.Fprintf(&b, "  %-24s %8d %10.1f %8d   %s\n", k, d.Min, d.Avg, d.Max, paper[k])
	}
	return b.String()
}

// ---- Figure 8: proof size distribution ----

// Figure8 returns the histogram buckets and the share below one page.
func (ev *Evaluation) Figure8() (buckets map[string]int, below4096 float64) {
	edges := []int{128, 256, 512, 1024, 2048, 4096}
	buckets = map[string]int{}
	total, below := 0, 0
	for _, r := range ev.Results {
		for _, p := range r.ProofSizes {
			total++
			if p < 4096 {
				below++
			}
			placed := false
			for _, e := range edges {
				if p < e {
					buckets[fmt.Sprintf("<%d", e)]++
					placed = true
					break
				}
			}
			if !placed {
				buckets[">=4096"]++
			}
		}
	}
	if total > 0 {
		below4096 = 100 * float64(below) / float64(total)
	}
	return buckets, below4096
}

// Figure8String renders the distribution as a text histogram.
func (ev *Evaluation) Figure8String() string {
	buckets, below := ev.Figure8()
	order := []string{"<128", "<256", "<512", "<1024", "<2048", "<4096", ">=4096"}
	total := 0
	for _, k := range order {
		total += buckets[k]
	}
	var b strings.Builder
	b.WriteString("Figure 8: distribution of proof sizes\n")
	for _, k := range order {
		n := buckets[k]
		bar := strings.Repeat("#", int(60*float64(n)/float64(max(total, 1))))
		fmt.Fprintf(&b, "  %7s %6d %5.1f%% %s\n", k, n, pct(n, total), bar)
	}
	fmt.Fprintf(&b, "  %.1f%% of proofs fit in a single 4096-byte page (paper: 99.4%%)\n", below)
	return b.String()
}

// ---- §6.3 analysis duration ----

// DurationString renders the kernel/user time split and, for parallel
// runs, the sequential-equivalent versus wall-clock comparison.
func (ev *Evaluation) DurationString() string {
	var b strings.Builder
	b.WriteString("Analysis duration (§6.3)\n")
	if len(ev.Results) == 0 {
		// The empty evaluation has no meaningful min/avg/max or kernel
		// share; say so instead of rendering "min 0s" artifacts.
		b.WriteString("  no results: the evaluation analyzed zero programs\n")
		return b.String()
	}
	var kernel, user, total time.Duration
	var minT, maxT time.Duration
	refReqs, insns := 0, 0
	for i, r := range ev.Results {
		kernel += r.KernelTime
		user += r.UserTime
		total += r.TotalTime
		if i == 0 || r.TotalTime < minT {
			minT = r.TotalTime
		}
		if r.TotalTime > maxT {
			maxT = r.TotalTime
		}
		refReqs += r.Requests
		insns += r.InsnProcessed
	}
	fmt.Fprintf(&b, "  total analysis time: %v (avg %v/program, min %v, max %v)\n",
		total.Round(time.Millisecond), (total / time.Duration(len(ev.Results))).Round(time.Microsecond),
		minT.Round(time.Microsecond), maxT.Round(time.Millisecond))
	if ev.WallClock > 0 && ev.Parallelism > 0 {
		speedup := float64(total) / float64(ev.WallClock)
		fmt.Fprintf(&b, "  wall clock: %v at parallelism %d (sequential-equivalent %v, %.2fx speedup)\n",
			ev.WallClock.Round(time.Millisecond), ev.Parallelism,
			total.Round(time.Millisecond), speedup)
	}
	if kernel+user > 0 {
		ksplit := 100 * float64(kernel) / float64(kernel+user)
		fmt.Fprintf(&b, "  kernel space: %.1f%%   user space: %.1f%%   (paper: 79.3%% / 20.7%%)\n",
			ksplit, 100-ksplit)
	} else {
		b.WriteString("  kernel/user split unavailable (no timed work recorded)\n")
	}
	fmt.Fprintf(&b, "  refinement requests: %d over %d analyzed insns (%.3f%% of insns; paper: <0.1%%)\n",
		refReqs, insns, 100*float64(refReqs)/float64(max(insns, 1)))
	return b.String()
}

// ---- proof-cache effectiveness ----

// CacheTableString renders the shared proof cache's hit/miss/eviction
// statistics for the run (bcfbench -table cache). Cross-program hits are
// the concurrency dividend of §7's determinism argument: condition bytes
// are a pure function of the program, so structurally identical corpus
// entries request identical conditions and the second requester skips
// the solver.
func (ev *Evaluation) CacheTableString() string {
	s := ev.Cache
	var b strings.Builder
	b.WriteString("Shared proof cache (one cache across all workers)\n")
	fmt.Fprintf(&b, "  %-12s %8d\n", "hits", s.Hits)
	fmt.Fprintf(&b, "  %-12s %8d\n", "misses", s.Misses)
	fmt.Fprintf(&b, "  %-12s %7.1f%%\n", "hit rate", s.HitRate())
	fmt.Fprintf(&b, "  %-12s %8d\n", "evictions", s.Evictions)
	fmt.Fprintf(&b, "  %-12s %8d / %d\n", "size", s.Size, s.Cap)
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
