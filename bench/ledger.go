package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/bitblast"
	"bcf/internal/expr"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/proof"
	"bcf/internal/prooffleet"
	"bcf/internal/sat"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// satReplayConflicts is the conflict budget solver.Prove gives the SAT
// search; the bit-blast replays use the same one.
const satReplayConflicts = 4_000_000

// layers are the self-time rows of the ledger, in pipeline order. Every
// span's self time is its duration minus its children's. The kernel-side
// proof check runs inside bcf.Refiner.Refine, where no outside span can
// reach, so its time, which the refiner measures itself
// (RequestStats.CheckDuration), moves from the refine span's self time
// to proof.check. The rows therefore partition the traced load time by
// construction; the walk row is what the other rows leave of the load
// span.
var layers = []string{
	"verifier.walk", "bcf.refine", "proof.check", "loader.service",
	"bcfenc.codec", "loader.cache", "solver.prove", "prooffleet.prove",
}

// layerOf maps a span name to its ledger row.
func layerOf(span string) string {
	switch span {
	case "load":
		return "verifier.walk"
	case "bcfenc.decode", "bcfenc.encode":
		return "bcfenc.codec"
	}
	return span
}

// span is one interval the traced run records around a call into a
// layer.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for none
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps one load's spans in memory. The traced run has one
// client and the verifier calls the refiner on the loading goroutine,
// so spans nest along a single call stack.
type recorder struct {
	spans []span
	stack []int32
}

func (r *recorder) begin(name string) int32 {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Now()})
	i := int32(len(r.spans) - 1)
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int32) time.Duration {
	r.spans[i].end = time.Now()
	r.stack = r.stack[:len(r.stack)-1]
	return r.spans[i].dur()
}

// round is one refinement obligation of a traced load.
type round struct {
	cond, proof []byte
	err         error
	cex         bool
	refine      int32         // span of the Refine call that issued it
	check       time.Duration // the refiner's own in-kernel check time
}

// prover is the traced run's bcf.ProofService. It rebuilds the user
// half of loader.Load from the same public calls, each one timed: the
// proof cache, then bcfenc.DecodeCondition, solver.Prove (with the
// loader's one escalation) and bcfenc.EncodeProof; or, on the remote
// workload, the fleet's ProveBytes. Errors carry the loader's text, so
// verdicts and error strings match loader.Load.
//
// It is a copy of loader.prove and loader.proveLocal, kept in step by
// the per-load fidelity check (fidelity.go). It leaves out the
// backpressure retry of loader.remoteProve, which a lone client on a
// one-endpoint fleet never triggers (a retry would show as a fault).
// Once the loader's own spans are accepted as the ledger's source, the
// copy goes.
type prover struct {
	cache  *loader.ProofCache
	fleet  *prooffleet.Fleet
	rec    *recorder
	rounds []round

	lookups, hits, coalesced, escalations int
	proves, rewrites, cexs                int
	rttUS                                 []float64
}

func (p *prover) Prove(cond []byte) ([]byte, error) {
	sp := p.rec.begin("loader.service")
	out, err := p.prove(cond)
	p.rec.end(sp)
	p.rounds = append(p.rounds, round{cond: cond, proof: out, err: err,
		cex: bcferr.CounterexampleOf(err) != nil})
	return out, err
}

func (p *prover) prove(cond []byte) ([]byte, error) {
	switch {
	case p.fleet != nil:
		sp := p.rec.begin("prooffleet.prove")
		out, err := p.fleet.ProveBytes(context.Background(), cond)
		p.rttUS = append(p.rttUS, us(p.rec.end(sp)))
		if errors.Is(err, bcferr.ErrRemoteUnavailable) {
			return nil, bcferr.Wrap(bcferr.ClassProtocol,
				fmt.Errorf("loader: remote prover: %w", err))
		}
		return out, err
	case p.cache != nil:
		sp := p.rec.begin("loader.cache")
		out, hit, shared, err := p.cache.GetOrCompute(cond, func() ([]byte, error) {
			return p.solve(cond)
		})
		p.rec.end(sp)
		p.lookups++
		if hit {
			p.hits++
		}
		if shared {
			p.coalesced++
		}
		return out, err
	}
	return p.solve(cond)
}

func (p *prover) solve(condBytes []byte) ([]byte, error) {
	sp := p.rec.begin("bcfenc.decode")
	cond, err := bcfenc.DecodeCondition(condBytes)
	p.rec.end(sp)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol,
			fmt.Errorf("loader: bad condition from kernel: %w", err))
	}
	ctx := context.Background()
	sp = p.rec.begin("solver.prove")
	out, err := solver.Prove(ctx, cond.Cond, solver.Options{})
	if err != nil && bcferr.ClassOf(err) == bcferr.ClassSolverTimeout {
		p.escalations++
		out, err = solver.Prove(ctx, cond.Cond, solver.Options{DisableRewriteTier: true})
	}
	p.rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("loader: solver: %w", err)
	}
	p.proves++
	if out.Tier == solver.TierRewrite {
		p.rewrites++
	}
	if !out.Proven {
		p.cexs++
		return nil, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"loader: condition violated (counterexample found)"), out.Counterexample)
	}
	sp = p.rec.begin("bcfenc.encode")
	buf, err := bcfenc.EncodeProof(out.Proof)
	p.rec.end(sp)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol,
			fmt.Errorf("loader: encoding proof: %w", err))
	}
	return buf, nil
}

// timedRefiner wraps bcf.Refiner, timing each Refine call and counting
// the heap objects it allocates.
type timedRefiner struct {
	r       *bcf.Refiner
	p       *prover
	objects *heapCounter
	allocs  uint64
}

func (t *timedRefiner) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	a0 := t.objects.read()
	sp := t.p.rec.begin("bcf.refine")
	first := len(t.p.rounds)
	res, err := t.r.Refine(req)
	t.p.rec.end(sp)
	for i := first; i < len(t.p.rounds); i++ {
		t.p.rounds[i].refine = sp
	}
	t.allocs += t.objects.read() - a0
	return res, err
}

// tracedLoad is the outcome of one traced load.
type tracedLoad struct {
	accepted bool
	err      error
	stats    verifier.Stats
	rounds   []round
	fault    string
}

// tracer runs loads through the recomposed pipeline and books every
// layer's time in a ledger. It builds verifier.New with a timing
// wrapper around bcf.NewRefiner as Config.Refiner, which is what
// loader.Load builds inside its session at ParallelPaths=1, minus the
// session's goroutine handoff.
type tracer struct {
	w       *workload
	p       *prover
	rec     recorder
	objects *heapCounter
	led     *ledger
	// timeline, when set, receives every span for the Perfetto file.
	timeline *obs.Tracer
	epoch    time.Time
	loads    int
}

func newTracer(w *workload, cache *loader.ProofCache, r *rig) *tracer {
	t := &tracer{w: w, objects: newHeapCounter("/gc/heap/allocs:objects"),
		led: newLedger(), epoch: time.Now()}
	t.p = &prover{cache: cache, fleet: r.fleet, rec: &t.rec}
	return t
}

// load runs one traced load, then replays its rounds.
func (t *tracer) load(e entry) tracedLoad {
	t.rec.spans, t.rec.stack, t.p.rounds = t.rec.spans[:0], t.rec.stack[:0], nil
	ref := &timedRefiner{r: bcf.NewRefiner(t.p), p: t.p, objects: t.objects}
	a0 := t.objects.read()
	sp := t.rec.begin("load")
	v := verifier.New(e.prog, verifier.Config{InsnLimit: t.w.insnLimit, ParallelPaths: 1, Refiner: ref})
	err := v.Verify()
	total := t.rec.end(sp)
	walkAllocs := t.objects.read() - a0 - ref.allocs
	loadSpans := len(t.rec.spans)

	res := tracedLoad{accepted: err == nil, err: err, stats: v.Stats(), rounds: t.p.rounds}
	got := outcome(res.accepted, err, len(res.rounds))
	res.fault = fault(e, got, err, 0)
	// The refiner records one request per call into the service, in order.
	reqs := ref.r.Stats().Requests
	if len(reqs) != len(res.rounds) && res.fault == "" {
		res.fault = fmt.Sprintf("%s: refiner recorded %d requests for %d rounds", e.prog.Name, len(reqs), len(res.rounds))
	}
	for i := range min(len(reqs), len(res.rounds)) {
		res.rounds[i].check = reqs[i].CheckDuration
	}
	if msg := t.replay(e); res.fault == "" {
		res.fault = msg
	}
	t.led.add(t.rec.spans, loadSpans, res, total, walkAllocs)
	if t.timeline != nil {
		t.export(e)
	}
	t.loads++
	return res
}

// replay re-runs the kernel-side check of every proven round through
// bcfenc.DecodeProof and proof.Check, which must accept, and times every
// bit-blast-tier round through bitblast.Encode and sat.Solve.
func (t *tracer) replay(e entry) string {
	for i := range t.p.rounds {
		rd := &t.p.rounds[i]
		cond, err := bcfenc.DecodeCondition(rd.cond)
		if err != nil {
			return fmt.Sprintf("%s: round %d: condition does not decode: %v", e.prog.Name, i, err)
		}
		bitblastTier := rd.cex
		if rd.err == nil {
			pf, err := bcfenc.DecodeProof(rd.proof)
			if err == nil {
				err = proof.Check(cond.Cond, pf)
			}
			if err != nil {
				return fmt.Sprintf("%s: round %d: replayed check rejects: %v", e.prog.Name, i, err)
			}
			bitblastTier = hasBitblastStep(pf)
		}
		if !bitblastTier {
			continue
		}
		sp := t.rec.begin("bitblast.encode")
		cnf, err := bitblast.Encode(expr.BoolNot(cond.Cond))
		enc := t.rec.end(sp)
		if err != nil {
			return fmt.Sprintf("%s: round %d: bit-blast replay: %v", e.prog.Name, i, err)
		}
		sp = t.rec.begin("sat.solve")
		s := sat.New(cnf.NVars, true)
		s.MaxConflicts = satReplayConflicts
		for _, c := range cnf.Clauses {
			if err == nil {
				err = s.AddClause(c...)
			}
		}
		var res sat.Result
		if err == nil {
			res, err = s.Solve()
		}
		solve := t.rec.end(sp)
		if err != nil || res.SAT != rd.cex {
			return fmt.Sprintf("%s: round %d: SAT replay disagrees (sat=%v, counterexample=%v, err=%v)",
				e.prog.Name, i, res.SAT, rd.cex, err)
		}
		t.led.solved(enc, solve, len(cnf.Clauses), res.Proof)
	}
	return ""
}

func hasBitblastStep(pf *proof.Proof) bool {
	for _, s := range pf.Steps {
		if s.Rule == proof.RuleBitblastClause {
			return true
		}
	}
	return false
}

// export moves the load's spans onto the Perfetto timeline.
func (t *tracer) export(e entry) {
	evs := make([]obs.TraceEvent, 0, len(t.rec.spans))
	for _, s := range t.rec.spans {
		evs = append(evs, obs.TraceEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			TS:   float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"load": t.loads, "program": e.prog.Name},
		})
	}
	t.timeline.Merge(obs.ExportedTrace{StartUnixNano: t.epoch.UnixNano(), Events: evs},
		1, "bench "+t.w.name, 0)
}

// ledger accumulates the per-layer measurements of a traced run.
type ledger struct {
	loads                       int
	insns, paths, pruned        int
	refines, grants             int
	total                       time.Duration
	self                        map[string]time.Duration
	walkAllocs                  uint64
	refineSelfUS, checkUS       []float64
	checkNS, checkBytes         int64
	rounds, condBytes, proofLen int
	solves, clauses, resSteps   int
	encode, satSolve            time.Duration
	loadUS                      []float64 // traced time of each load
}

func newLedger() *ledger { return &ledger{self: map[string]time.Duration{}} }

// add books one load. spans[:loadSpans] are the load's own spans; the
// replays after them are not part of the load.
func (l *ledger) add(spans []span, loadSpans int, res tracedLoad, total time.Duration, walkAllocs uint64) {
	self := make([]time.Duration, loadSpans)
	for i, s := range spans[:loadSpans] {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	for _, rd := range res.rounds {
		self[rd.refine] -= rd.check
		l.self["proof.check"] += rd.check
		if rd.err == nil {
			l.checkUS = append(l.checkUS, us(rd.check))
			l.checkNS += rd.check.Nanoseconds()
			l.checkBytes += int64(len(rd.proof))
		}
		l.rounds++
		l.condBytes += len(rd.cond)
		l.proofLen += len(rd.proof)
	}
	for i, s := range spans[:loadSpans] {
		l.self[layerOf(s.name)] += self[i]
		if s.name == "bcf.refine" {
			l.refineSelfUS = append(l.refineSelfUS, us(self[i]))
		}
	}
	l.loads++
	l.total += total
	l.loadUS = append(l.loadUS, us(total))
	l.walkAllocs += walkAllocs
	l.insns += res.stats.InsnProcessed
	l.paths += res.stats.PathsExplored
	l.pruned += res.stats.StatesPruned
	l.refines += res.stats.RefineAttempts
	l.grants += res.stats.Refinements
}

func (l *ledger) solved(enc, solve time.Duration, clauses int, rp *sat.Proof) {
	l.solves++
	l.encode += enc
	l.satSolve += solve
	l.clauses += clauses
	if rp != nil {
		l.resSteps += len(rp.Steps)
	}
}

// layerRow is one self-time row of a traced run's report.
type layerRow struct {
	Layer         string  `json:"layer"`
	SelfUSPerLoad float64 `json:"self_us_per_load"`
	Share         float64 `json:"share"`
}

func (l *ledger) rows() []layerRow {
	var out []layerRow
	for _, name := range layers {
		out = append(out, layerRow{Layer: name,
			SelfUSPerLoad: us(l.self[name]) / float64(max(l.loads, 1)),
			Share:         ratio(float64(l.self[name]), float64(l.total))})
	}
	return out
}

// metrics computes every per-layer metric. p is the prover whose
// counters cover the traced loads; fleet and daemon deltas come from
// the caller.
func (l *ledger) metrics(p *prover, failovers int64, proofdHitRatio, overheadPct float64) map[string]float64 {
	loads := float64(max(l.loads, 1))
	refineSelf := sortedCopy(l.refineSelfUS)
	check := sortedCopy(l.checkUS)
	rtt := sortedCopy(p.rttUS)
	kernel := l.self["verifier.walk"] + l.self["bcf.refine"] + l.self["proof.check"]
	return map[string]float64{
		"verifier.walk_us_per_load": us(l.self["verifier.walk"]) / loads,
		"verifier.ns_per_insn":      ratio(float64(l.self["verifier.walk"].Nanoseconds()), float64(l.insns)),
		"verifier.allocs_per_insn":  ratio(float64(l.walkAllocs), float64(l.insns)),
		"verifier.insns_per_load":   float64(l.insns) / loads,
		"verifier.paths_per_load":   float64(l.paths) / loads,
		"verifier.pruned_per_load":  float64(l.pruned) / loads,

		"bcf.refine_self_us_per_load": us(l.self["bcf.refine"]) / loads,
		"bcf.refine_self_us_p99":      percentile(refineSelf, 0.99),
		"bcf.refine_per_load":         float64(l.refines) / loads,
		"bcf.refine_grant_ratio":      ratio(float64(l.grants), float64(l.refines)),

		"proof.check_us_per_round": ratio(float64(l.checkNS)/1e3, float64(len(l.checkUS))),
		"proof.check_us_p99":       percentile(check, 0.99),
		"proof.check_ns_per_byte":  ratio(float64(l.checkNS), float64(l.checkBytes)),

		"bcfenc.codec_us_per_round":      ratio(us(l.self["bcfenc.codec"]), float64(l.rounds)),
		"bcfenc.cond_bytes_per_round":    ratio(float64(l.condBytes), float64(l.rounds)),
		"bcfenc.proof_bytes_per_round":   ratio(float64(l.proofLen), float64(l.rounds)),
		"loader.cache_hit_ratio":         ratio(float64(p.hits), float64(p.lookups)),
		"loader.cache_coalesced":         float64(p.coalesced),
		"loader.escalations":             float64(p.escalations),
		"solver.prove_us_per_load":       us(l.self["solver.prove"]) / loads,
		"solver.prove_per_load":          float64(p.proves) / loads,
		"solver.rewrite_ratio":           ratio(float64(p.rewrites), float64(p.proves)),
		"solver.counterexample_ratio":    ratio(float64(p.cexs), float64(p.proves)),
		"bitblast.encode_us_per_solve":   ratio(us(l.encode), float64(l.solves)),
		"bitblast.clauses_per_solve":     ratio(float64(l.clauses), float64(l.solves)),
		"sat.solve_us_per_solve":         ratio(us(l.satSolve), float64(l.solves)),
		"sat.resolution_steps_per_solve": ratio(float64(l.resSteps), float64(l.solves)),

		"prooffleet.rtt_us_p50":  percentile(rtt, 0.50),
		"prooffleet.rtt_us_p99":  percentile(rtt, 0.99),
		"prooffleet.failovers":   float64(failovers),
		"proofd.cache_hit_ratio": proofdHitRatio,

		"ledger.load_us_per_load":   us(l.total) / loads,
		"ledger.kernel_share":       ratio(float64(kernel), float64(l.total)),
		"ledger.trace_overhead_pct": overheadPct,
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
