package fuzzcamp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bcf/internal/difftest"
	"bcf/internal/ebpf"
	"bcf/internal/obs"
	"bcf/internal/verifier"
)

// maxCorpus caps the coverage-growing input set; beyond it new inputs
// still contribute their coverage bits but are not kept as mutation
// bases.
const maxCorpus = 256

// Options configure a campaign.
type Options struct {
	// Seed is the campaign seed: every work item derives from it.
	Seed int64
	// Rounds is the number of campaign rounds (0 = derived from Execs).
	Rounds int
	// Execs is the total exec budget; used when Rounds is 0
	// (0 with no Deadline = one round).
	Execs int
	// Batch is the number of work items per round (0 = 32).
	Batch int
	// Workers is the local executor pool size used by Run (<= 0 = 4). It
	// never affects campaign results, only wall-clock time.
	Workers int
	// Deadline, when nonzero, stops the campaign at the next round
	// boundary after it passes. Deadline-bounded campaigns trade the
	// fixed-budget determinism guarantee for wall-clock control.
	Deadline time.Time
	// AdversaryEvery runs the (expensive) checker-adversary oracle on
	// every Nth work item (0 = 4; negative = never).
	AdversaryEvery int
	// FreshEvery makes roughly one in N post-seed items a fresh
	// generator program instead of a corpus mutation (0 = 8).
	FreshEvery int
	// StopOnFailure finishes the campaign after the first failing item,
	// in deterministic item order — the sabotage drill's "exactly one
	// reproducer" mode.
	StopOnFailure bool
	// MinimizeBudget bounds oracle evaluations per failure minimization
	// (0 = 300).
	MinimizeBudget int
	// PromoteDir, when set, receives one .bpfasm reproducer file per
	// unique failure, formatted for internal/corpus/regressions.
	PromoteDir string
	// Exec configures the oracle runs on every item.
	Exec ExecOptions
	// Obs receives campaign metrics (nil-safe).
	Obs *obs.Registry
	// Log, when non-nil, receives one progress line per round.
	Log io.Writer
}

// WorkItem is one program to run through the oracles. buildRound
// materializes it from the corpus, so pool workers receive concrete
// programs and never touch corpus state.
type WorkItem struct {
	ExecSeed  int64
	Adversary bool
	Prog      *ebpf.Program
}

// Round is one deterministic batch of work items.
type Round struct {
	N     int
	Items []WorkItem
}

// Reproducer is one deduplicated, minimized failure.
type Reproducer struct {
	Key      string // oracle + minimized-program hash: the dedup identity
	Oracle   Oracle
	ExecSeed int64
	Msg      string
	Round    int    // round the failure was first seen in
	Insns    int    // instructions in the minimized program
	File     string // promoted .bpfasm path ("" unless PromoteDir set)
	Prog     *ebpf.Program
}

// Stats is the campaign outcome, shaped for -json output. Fields that
// depend on wall-clock (duration, execs/sec) are the only ones allowed
// to differ across worker counts for a fixed seed and exec budget.
type Stats struct {
	Seed            int64        `json:"seed"`
	Workers         int          `json:"workers"`
	Rounds          int          `json:"rounds"`
	Execs           int64        `json:"execs"`
	Accepted        int64        `json:"accepted"`
	CoverageBits    int          `json:"coverage_bits"`
	CoverageHistory []int        `json:"coverage_history"`
	CorpusSize      int          `json:"corpus_size"`
	FailuresSeen    int64        `json:"failures_seen"`
	UniqueFailures  int          `json:"unique_failures"`
	Failures        []ReproStats `json:"failures,omitempty"`
	DurationSec     float64      `json:"duration_sec"`
	ExecsPerSec     float64      `json:"execs_per_sec"`
}

// ReproStats is the JSON shape of one unique failure.
type ReproStats struct {
	Oracle   string `json:"oracle"`
	Key      string `json:"key"`
	Round    int    `json:"round"`
	Insns    int    `json:"min_insns"`
	ExecSeed int64  `json:"exec_seed"`
	File     string `json:"file,omitempty"`
	Msg      string `json:"msg"`
}

// Campaign is the deterministic engine: rounds are built from
// (seed, round, item) plus absorbed corpus state, executed on Run's
// local worker pool, and merged back in item order behind a round
// barrier.
type Campaign struct {
	opt Options

	corpus     []*corpusEntry
	cov        Bitmap
	round      int
	base       int // round the campaign resumed at (LoadState), 0 when cold
	execs      int64
	accepted   int64
	seen       int64
	repros     map[string]*Reproducer
	order      []string
	covHist    []int
	stopped    bool
	promoteErr error // first reproducer-promotion write error
}

type corpusEntry struct {
	prog *ebpf.Program
}

// New returns a campaign over the given options.
func New(opt Options) *Campaign {
	if opt.Batch <= 0 {
		opt.Batch = 32
	}
	if opt.AdversaryEvery == 0 {
		opt.AdversaryEvery = 4
	}
	if opt.FreshEvery <= 0 {
		opt.FreshEvery = 8
	}
	if opt.MinimizeBudget <= 0 {
		opt.MinimizeBudget = 300
	}
	return &Campaign{opt: opt, repros: map[string]*Reproducer{}}
}

func (c *Campaign) totalRounds() int {
	if c.opt.Rounds > 0 {
		return c.opt.Rounds
	}
	if c.opt.Execs > 0 {
		return (c.opt.Execs + c.opt.Batch - 1) / c.opt.Batch
	}
	if !c.opt.Deadline.IsZero() {
		return math.MaxInt
	}
	return 1
}

// finished reports whether the campaign should build another round.
// The round budget is relative to the resume point, so a campaign
// restored with LoadState runs its full configured budget.
func (c *Campaign) finished() bool {
	if c.stopped || c.round-c.base >= c.totalRounds() {
		return true
	}
	if !c.opt.Deadline.IsZero() && time.Now().After(c.opt.Deadline) {
		return true
	}
	return false
}

// itemSeed derives the per-item seed: the only entropy source of a
// round, so equal (campaign seed, round, index) always name the same
// work regardless of which worker runs it.
func itemSeed(seed int64, round, idx int) int64 {
	return int64(mix64(uint64(seed) ^ uint64(round)*0x9e3779b97f4a7c15 ^ uint64(idx)*0xbf58476d1ce4e5b9))
}

// buildRound materializes the next round's work items from the current
// corpus: fresh generator programs while the corpus warms up (and for
// one in FreshEvery items after), corpus mutations otherwise.
func (c *Campaign) buildRound() *Round {
	r := &Round{N: c.round}
	for i := 0; i < c.opt.Batch; i++ {
		seed := itemSeed(c.opt.Seed, c.round, i)
		rng := rand.New(rand.NewSource(seed))
		var prog *ebpf.Program
		if len(c.corpus) == 0 || rng.Intn(c.opt.FreshEvery) == 0 {
			prog = difftest.NewGen(seed).Generate()
		} else {
			base := c.corpus[rng.Intn(len(c.corpus))]
			donors := make([]*ebpf.Program, 0, 4)
			for d := 0; d < 4 && d < len(c.corpus); d++ {
				donors = append(donors, c.corpus[rng.Intn(len(c.corpus))].prog)
			}
			prog = NewMutator(rng).Mutate(base.prog, donors)
			if prog == nil {
				prog = difftest.NewGen(seed).Generate()
			} else {
				prog.Name = fmt.Sprintf("fuzz-r%d-i%d", c.round, i)
			}
		}
		global := c.round*c.opt.Batch + i
		adv := c.opt.AdversaryEvery > 0 && global%c.opt.AdversaryEvery == 0
		r.Items = append(r.Items, WorkItem{
			ExecSeed:  itemSeed(^c.opt.Seed, c.round, i),
			Adversary: adv,
			Prog:      prog,
		})
	}
	return r
}

// absorbRound merges one round's results in item order: coverage union,
// corpus admission for coverage-growing inputs, failure minimization +
// dedup. results must be indexed like r.Items; a nil entry (skipped
// item) contributes nothing.
func (c *Campaign) absorbRound(r *Round, results []*ExecResult) {
	for i := range r.Items {
		if c.stopped {
			break
		}
		item := &r.Items[i]
		if i >= len(results) || results[i] == nil {
			continue
		}
		res := results[i]
		c.execs++
		if res.Accepted {
			c.accepted++
		}
		for fi := range res.Failures {
			c.seen++
			c.opt.Obs.Counter(obs.Label(obs.MFuzzFailuresSeen, "oracle", res.Failures[fi].Oracle.String())).Inc()
			c.recordFailure(item.Prog, res.Failures[fi])
			if c.opt.StopOnFailure {
				c.stopped = true
				break
			}
		}
		if res.Cov.HasNew(&c.cov) && len(c.corpus) < maxCorpus {
			c.corpus = append(c.corpus, &corpusEntry{prog: item.Prog})
		}
		c.cov.Or(&res.Cov)
	}
	c.round++
	c.covHist = append(c.covHist, c.cov.Count())

	reg := c.opt.Obs
	reg.Counter(obs.MFuzzRounds).Inc()
	reg.Counter(obs.MFuzzExecs).Add(int64(len(r.Items)))
	reg.Gauge(obs.MFuzzCoverageBits).Set(int64(c.cov.Count()))
	reg.Gauge(obs.MFuzzCorpusSize).Set(int64(len(c.corpus)))

	if c.opt.Log != nil {
		fmt.Fprintf(c.opt.Log, "round %d: execs=%d cov=%d corpus=%d failures=%d unique=%d\n",
			c.round, c.execs, c.cov.Count(), len(c.corpus), c.seen, len(c.repros))
	}
}

// recordFailure minimizes one failing program against its oracle and
// folds it into the dedup table; new keys are promoted when PromoteDir
// is set.
func (c *Campaign) recordFailure(p *ebpf.Program, f Failure) {
	min := difftest.Minimize(p, c.failurePred(f), c.opt.MinimizeBudget)
	key := f.Oracle.String() + ":" + progHash(min)
	if _, dup := c.repros[key]; dup {
		return
	}
	rep := &Reproducer{
		Key:      key,
		Oracle:   f.Oracle,
		ExecSeed: f.ExecSeed,
		Msg:      f.Msg,
		Round:    c.round,
		Insns:    countInsns(min),
		Prog:     min,
	}
	if c.opt.PromoteDir != "" {
		file, err := WriteReproducer(c.opt.PromoteDir, rep)
		if err != nil && c.promoteErr == nil {
			c.promoteErr = fmt.Errorf("fuzzcamp: promoting reproducer %s to %s: %w", key, c.opt.PromoteDir, err)
		}
		rep.File = file
	}
	c.repros[key] = rep
	c.order = append(c.order, key)
	c.opt.Obs.Counter(obs.MFuzzUniqueFailures).Inc()
	if j := c.opt.Obs.Journal(); j != nil {
		j.Recordf(obs.JKindFuzz, "fuzzcamp", int64(c.round),
			"%s oracle verdict (round %d, %d insns): %s", f.Oracle, c.round, rep.Insns, f.Msg)
	}
}

// failurePred re-runs only the failing oracle with the failure's exec
// seed — the minimizer's "does it still fail" predicate. Minimization
// always proves in-process: remote proving cannot change a verdict (the
// kernel checker is the gate), so skipping the round trips is free.
func (c *Campaign) failurePred(f Failure) func(*ebpf.Program) bool {
	inputs := c.opt.Exec.Inputs
	if inputs <= 0 {
		inputs = 4
	}
	vcfg := verifier.Config{InsnLimit: c.opt.Exec.InsnLimit, Sabotage: c.opt.Exec.Sabotage}
	switch f.Oracle {
	case OracleDomain:
		return func(q *ebpf.Program) bool {
			_, v := difftest.CheckDomain(q, vcfg, inputs, f.ExecSeed)
			return v != nil
		}
	case OracleAcceptSafe:
		return func(q *ebpf.Program) bool {
			_, v := difftest.CheckAcceptSafe(q, campaignLoaderOpts(vcfg, nil), inputs, f.ExecSeed)
			return v != nil
		}
	case OracleCrash:
		// A crash can come from any oracle; re-run the whole in-process
		// pipeline (Execute recovers panics into OracleCrash failures).
		opt := c.opt.Exec
		opt.Remote = nil
		return func(q *ebpf.Program) bool {
			for _, g := range Execute(q, f.ExecSeed, true, opt).Failures {
				if g.Oracle == OracleCrash {
					return true
				}
			}
			return false
		}
	default:
		return func(q *ebpf.Program) bool {
			rng := rand.New(rand.NewSource(f.ExecSeed))
			aopts := campaignLoaderOpts(vcfg, nil)
			aopts.EnableBCF = false // CheckAdversary arms BCF itself
			_, viols := difftest.CheckAdversary(q, aopts, rng, nil)
			return len(viols) > 0
		}
	}
}

// Run drives the campaign with a local worker pool until the budget,
// deadline, stop-on-failure or ctx ends it. Results are identical at
// any worker count: workers only execute; building and merging stay
// sequential on the round barrier. The Stats are always returned; the
// error reports the first reproducer that could not be written to
// PromoteDir (the campaign itself still ran to its end).
func (c *Campaign) Run(ctx context.Context) (*Stats, error) {
	start := time.Now()
	workers := c.opt.Workers
	if workers <= 0 {
		workers = 4
	}
	c.opt.Obs.Gauge(obs.MFuzzWorkers).Set(int64(workers))
	for !c.finished() && ctx.Err() == nil {
		r := c.buildRound()
		results := make([]*ExecResult, len(r.Items))
		var wg sync.WaitGroup
		var next atomic.Int64
		next.Store(-1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1))
					if i >= len(r.Items) {
						return
					}
					it := &r.Items[i]
					results[i] = Execute(it.Prog, it.ExecSeed, it.Adversary, c.opt.Exec)
				}
			}()
		}
		wg.Wait()
		if ctx.Err() != nil {
			break
		}
		c.absorbRound(r, results)
	}
	return c.stats(workers, time.Since(start)), c.promoteErr
}

// stats snapshots the campaign outcome.
func (c *Campaign) stats(workers int, elapsed time.Duration) *Stats {
	s := &Stats{
		Seed:            c.opt.Seed,
		Workers:         workers,
		Rounds:          c.round,
		Execs:           c.execs,
		Accepted:        c.accepted,
		CoverageBits:    c.cov.Count(),
		CoverageHistory: append([]int(nil), c.covHist...),
		CorpusSize:      len(c.corpus),
		FailuresSeen:    c.seen,
		UniqueFailures:  len(c.repros),
		DurationSec:     elapsed.Seconds(),
	}
	if elapsed > 0 {
		s.ExecsPerSec = float64(c.execs) / elapsed.Seconds()
	}
	c.opt.Obs.Gauge(obs.MFuzzExecsPerSec).Set(int64(s.ExecsPerSec))
	for _, key := range c.order {
		r := c.repros[key]
		s.Failures = append(s.Failures, ReproStats{
			Oracle:   r.Oracle.String(),
			Key:      r.Key,
			Round:    r.Round,
			Insns:    r.Insns,
			ExecSeed: r.ExecSeed,
			File:     r.File,
			Msg:      r.Msg,
		})
	}
	return s
}

// Reproducers returns the unique failures in discovery order.
func (c *Campaign) Reproducers() []*Reproducer {
	out := make([]*Reproducer, 0, len(c.order))
	for _, key := range c.order {
		out = append(out, c.repros[key])
	}
	return out
}

// progHash is the dedup fingerprint: the wire encoding of the
// instructions plus the map geometry. 64 bits of SHA-256 — collisions
// would merely merge two reproducer files.
func progHash(p *ebpf.Program) string {
	h := sha256.New()
	h.Write(ebpf.EncodeProgram(p.Insns))
	for _, m := range p.Maps {
		fmt.Fprintf(h, "|%s:%d:%d:%d:%d", m.Name, m.Type, m.KeySize, m.ValueSize, m.MaxEntries)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func countInsns(p *ebpf.Program) int {
	n := 0
	for _, ins := range p.Insns {
		if !ins.IsPlaceholder() {
			n++
		}
	}
	return n
}
