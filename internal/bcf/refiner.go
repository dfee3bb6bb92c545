package bcf

import (
	"fmt"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
	"bcf/internal/obs"
	"bcf/internal/proof"
	"bcf/internal/verifier"
)

// ProofService is the user-space side of the refinement protocol: it
// receives a BCF-encoded refinement condition and must return a
// BCF-encoded proof of its validity. Returning an error means no proof
// exists (counterexample) or reasoning failed; the verifier then rejects.
//
// Nothing returned by a ProofService is trusted: the refiner decodes and
// fully re-checks the proof in kernel space before adopting anything.
type ProofService interface {
	Prove(condition []byte) (proofBytes []byte, err error)
}

// ProveFunc adapts an ordinary function to a ProofService.
type ProveFunc func(condition []byte) (proofBytes []byte, err error)

// Prove calls f.
func (f ProveFunc) Prove(condition []byte) ([]byte, error) { return f(condition) }

// RequestStats records per-refinement measurements (Table 3).
type RequestStats struct {
	TrackLen      int           // instructions symbolically tracked
	CondBytes     int           // encoded condition size
	ProofBytes    int           // encoded proof size
	CheckDuration time.Duration // kernel-side proof check time
	UserDuration  time.Duration // user-space reasoning time
	Tier          string        // which prover produced the proof (if reported)
}

// Stats aggregates refiner activity over one program load.
type Stats struct {
	Requests  []RequestStats
	Granted   int
	Failed    int
	UserTime  time.Duration
	CheckTime time.Duration
}

// Refiner implements verifier.Refiner using symbolic tracking, the BCF
// wire format, a delegated ProofService and the in-kernel proof checker.
type Refiner struct {
	Service ProofService
	// DisableBackward runs symbolic tracking from the path start instead
	// of the computed suffix (ablation).
	DisableBackward bool
	// Obs and Trace, when non-nil, receive per-round counters,
	// stage-latency histograms, and refine/track/encode/check spans
	// (keyed by refinement round). Nil costs only a nil check.
	Obs   *obs.Registry
	Trace *obs.Tracer

	stats Stats
}

// NewRefiner returns a refiner delegating to the given service.
func NewRefiner(service ProofService) *Refiner {
	return &Refiner{Service: service}
}

// Stats returns the accumulated measurements.
func (r *Refiner) Stats() *Stats { return &r.stats }

// Refine handles one failed check (verifier.Refiner).
func (r *Refiner) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	var sp obs.Span
	if r.Trace != nil {
		sp = r.Trace.StartArgs(obs.CatRefine, "refine", map[string]any{
			"round": len(r.stats.Requests), "insn": req.InsnIdx, "kind": req.Kind.String(),
		})
	}
	r.Obs.Counter(obs.MRefineRequests).Inc()
	round := len(r.stats.Requests)
	res, err := r.refine(req)
	if err != nil {
		r.stats.Failed++
		r.Obs.Counter(obs.MRefinementsFailed).Inc()
		if j := r.Obs.Journal(); j != nil {
			j.Recordf(obs.JKindRefine, "refiner", int64(round),
				"round %d: %s at insn %d failed: %v", round, req.Kind, req.InsnIdx, err)
		}
		sp.End()
		return nil, err
	}
	r.stats.Granted++
	r.Obs.Counter(obs.MRefinementsGranted).Inc()
	if j := r.Obs.Journal(); j != nil {
		j.Recordf(obs.JKindRefine, "refiner", int64(round),
			"round %d: %s at insn %d granted", round, req.Kind, req.InsnIdx)
	}
	sp.End()
	return res, nil
}

func (r *Refiner) refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	if r.Service == nil {
		return nil, fmt.Errorf("bcf: no proof service configured")
	}
	if req.Path == (verifier.Path{}) {
		return nil, fmt.Errorf("bcf: empty analysis path")
	}

	var trackStart time.Time
	if r.Obs != nil {
		trackStart = time.Now()
	}
	tsp := r.Trace.Start(obs.CatRefine, "track")

	// 1. Backward analysis finds how far back the track reaches.
	var back int
	if r.DisableBackward {
		back = req.Path.Len() - 1
	} else {
		back = backwardAnalysis(req.Prog, req.Path, req.Reg)
	}

	// 2. Symbolic tracking re-executes the suffix, the only part of the
	// path that is copied.
	tk := newTracker(req.Prog)
	err := tk.run(req.Path.Tail(back + 1))
	tsp.End()
	if r.Obs != nil {
		r.Obs.StageHistogram(obs.MTrackSeconds).Since(trackStart)
	}
	if err != nil {
		return nil, err
	}

	// Prune requests (WantLo > WantHi): no variable range can satisfy the
	// failed check, so the only repair is proving the path constraints
	// unsatisfiable (paper §6.2.1, Listing 8: rejection on an unreachable
	// path). The condition is simply ¬pathC.
	if req.WantLo > req.WantHi {
		if len(tk.constr) == 0 {
			return nil, fmt.Errorf("bcf: no path constraints to refute")
		}
		cond := expr.BoolNot(expr.Conj(tk.constr...))
		if err := r.delegate(cond, tk); err != nil {
			return nil, err
		}
		return &verifier.RefineResult{Pruned: true, Anchor: back + 1}, nil
	}

	// 3. The target expression: a scalar's value, or the variable part of
	// a pointer's offset (full tracked offset minus the verifier's fixed
	// part, which matches the verifier's decomposition by construction).
	tv := tk.reg(req.Reg)
	regState := &req.State.Regs[req.Reg]
	var target *expr.Expr
	switch {
	case regState.Type == verifier.Scalar:
		if tv.kind != kindScalar {
			return nil, fmt.Errorf("bcf: symbolic state disagrees with verifier (pointer vs scalar)")
		}
		target = tv.e
	case regState.Type.IsPtr():
		if tv.kind == kindScalar {
			return nil, fmt.Errorf("bcf: pointer target not symbolically tracked")
		}
		target = fold(expr.Sub(tv.e, expr.Const(uint64(int64(regState.Off)), 64)))
	default:
		return nil, fmt.Errorf("bcf: target register is uninitialized")
	}

	// 4. Build the refinement condition: pathC ⇒ target ∈ [WantLo, WantHi]
	// (Figure 5: the symbolic values must be contained in the refined
	// abstraction, under the suffix's path constraints).
	bound := expr.Ule(target, expr.Const(req.WantHi, 64))
	if req.WantLo > 0 {
		bound = expr.BoolAnd(expr.Ule(expr.Const(req.WantLo, 64), target), bound)
	}
	cond := bound
	if len(tk.constr) > 0 {
		cond = expr.Implies(expr.Conj(tk.constr...), bound)
	}
	if err := r.delegate(cond, tk); err != nil {
		return nil, err
	}
	return &verifier.RefineResult{Lo: req.WantLo, Hi: req.WantHi, Anchor: back + 1}, nil
}

// delegate ships the condition to user space and validates the returned
// proof with the in-kernel checker (§4 steps 2 and 3). The condition
// object itself never leaves kernel space; only its encoding does, and
// the proof must establish exactly the stored condition.
func (r *Refiner) delegate(cond *expr.Expr, tk *tracker) error {
	var encStart time.Time
	if r.Obs != nil {
		encStart = time.Now()
	}
	esp := r.Trace.Start(obs.CatRefine, "encode")
	condBytes, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond})
	esp.End()
	if r.Obs != nil {
		r.Obs.StageHistogram(obs.MEncodeSeconds).Since(encStart)
	}
	if err != nil {
		return fmt.Errorf("bcf: encoding condition: %w", err)
	}

	// The round span covers the whole kernel→user→kernel round trip:
	// session accounting, loader work and prover time.
	rsp := r.Trace.Start(obs.CatRefine, "round")
	userStart := time.Now()
	proofBytes, err := r.Service.Prove(condBytes)
	userDur := time.Since(userStart)
	rsp.End()
	r.stats.UserTime += userDur
	if r.Obs != nil {
		r.Obs.StageHistogram(obs.MRoundSeconds).ObserveDuration(userDur)
	}
	rs := RequestStats{
		TrackLen:     tk.steps,
		CondBytes:    len(condBytes),
		UserDuration: userDur,
	}
	if err != nil {
		r.stats.Requests = append(r.stats.Requests, rs)
		// The user error keeps its own class (solver timeout, protocol,
		// counterexample = unsafe); unclassified failures stay unclassified
		// and default to an unsafe rejection upstream.
		return fmt.Errorf("bcf: user space produced no proof: %w", err)
	}

	csp := r.Trace.Start(obs.CatCheck, "check")
	checkStart := time.Now()
	pf, err := bcfenc.DecodeProof(proofBytes)
	if err == nil {
		err = proof.Check(cond, pf)
	}
	rs.CheckDuration = time.Since(checkStart)
	csp.End()
	if r.Obs != nil {
		r.Obs.StageHistogram(obs.MCheckSeconds).ObserveDuration(rs.CheckDuration)
	}
	rs.ProofBytes = len(proofBytes)
	r.stats.CheckTime += rs.CheckDuration
	r.stats.Requests = append(r.stats.Requests, rs)
	if err != nil {
		return bcferr.Wrap(bcferr.ClassProofRejected,
			fmt.Errorf("bcf: proof rejected: %w", err))
	}
	return nil
}
