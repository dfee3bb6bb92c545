package bcf

import (
	"encoding/binary"
	"fmt"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
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

// RequestStats records one refinement request (Table 3). It is the
// kernel side's whole report on the request: the loader derives the
// refinement metrics, spans and journal entries from it.
type RequestStats struct {
	Insn       int                // instruction whose check failed
	Kind       verifier.CheckKind // the failed check
	Granted    bool               // the proof checked and the refinement was adopted
	TrackLen   int                // instructions symbolically tracked
	CondBytes  int                // encoded condition size
	ProofBytes int                // encoded proof size
	// Start is when Refine was called and Duration how long it ran;
	// the stage durations below lie inside that interval, in order.
	Start          time.Time
	Duration       time.Duration
	TrackDuration  time.Duration // backward analysis + symbolic tracking
	EncodeDuration time.Duration // condition encode
	UserDuration   time.Duration // user-space reasoning time
	CheckDuration  time.Duration // kernel-side proof check time; zero when user space returned no proof
}

// Stats aggregates refiner activity over one program load.
type Stats struct {
	// Requests holds one entry per condition shipped to user space, in
	// order; a reused condition is not shipped.
	Requests []RequestStats
	// Unshipped is the refinement that failed before its condition was
	// shipped (nil if none). A failed refinement ends the load, so there
	// is at most one.
	Unshipped  *RequestStats
	Granted    int
	Failed     int
	Reused     int           // granted, unshipped: the condition was already proven in this load
	ReusedTime time.Duration // the reused refinements' summed Duration
	UserTime   time.Duration
	// CondBytes and ProofBytes total the bytes that crossed, which Limits
	// cap; proof bytes count even when they came with an error.
	CondBytes  int
	ProofBytes int
}

// SessionLimits bound what one load may consume at the user-space
// boundary: a loader that floods the kernel with requests or traffic must
// not pin kernel memory. Its liveness is bounded on the loader side.
type SessionLimits struct {
	// MaxRequests caps refinement requests for one load (0 = default).
	MaxRequests int
	// MaxCondBytes caps the cumulative condition bytes shipped to user
	// space (0 = default).
	MaxCondBytes int
	// MaxProofBytes caps the cumulative proof bytes accepted from user
	// space (0 = default).
	MaxProofBytes int
}

// DefaultSessionLimits are generous for every honest loader: the paper's
// heaviest program issues ~16k refinement requests with kilobyte-sized
// messages.
var DefaultSessionLimits = SessionLimits{
	MaxRequests:   1 << 16,
	MaxCondBytes:  1 << 28,
	MaxProofBytes: 1 << 28,
}

// WithDefaults returns l with its zero fields from DefaultSessionLimits.
func (l SessionLimits) WithDefaults() SessionLimits {
	if l.MaxRequests == 0 {
		l.MaxRequests = DefaultSessionLimits.MaxRequests
	}
	if l.MaxCondBytes == 0 {
		l.MaxCondBytes = DefaultSessionLimits.MaxCondBytes
	}
	if l.MaxProofBytes == 0 {
		l.MaxProofBytes = DefaultSessionLimits.MaxProofBytes
	}
	return l
}

// Refiner implements verifier.Refiner using symbolic tracking, the BCF
// wire format, a delegated ProofService and the in-kernel proof checker.
// It is the kernel side of §5's extended BPF_PROG_LOAD: one Service call
// per condition stands for the suspended load and its resume. A Refiner
// serves one load and is not safe for concurrent use (nor is a load).
type Refiner struct {
	Service ProofService
	Limits  SessionLimits // zero fields take DefaultSessionLimits
	// DisableBackward runs symbolic tracking from the path start instead
	// of the computed suffix (ablation).
	DisableBackward bool

	stats    Stats
	proven   map[string]struct{} // keys (memoKey) of the requests proven in this load
	keyBytes int                 // their total length
	key      []byte              // the current request's key
}

// NewRefiner returns a refiner delegating to the given service.
func NewRefiner(service ProofService) *Refiner {
	return &Refiner{Service: service, key: make([]byte, 0, 64)}
}

// Stats returns the accumulated measurements.
func (r *Refiner) Stats() *Stats { return &r.stats }

// Refine handles one failed check (verifier.Refiner).
func (r *Refiner) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	rs := RequestStats{Insn: req.InsnIdx, Kind: req.Kind, Start: time.Now()}
	res, err := r.refine(req, &rs)
	rs.Duration = time.Since(rs.Start)
	rs.Granted = err == nil
	if err == nil {
		r.stats.Granted++
	} else {
		r.stats.Failed++
	}
	// Only a shipped condition has bytes; an encoding is never empty.
	switch {
	case rs.CondBytes > 0:
		r.stats.Requests = append(r.stats.Requests, rs)
	case err == nil:
		r.stats.Reused++
		r.stats.ReusedTime += rs.Duration
	default:
		u := rs
		r.stats.Unshipped = &u
	}
	return res, err
}

func (r *Refiner) refine(req *verifier.RefineRequest, rs *RequestStats) (*verifier.RefineResult, error) {
	if r.Service == nil {
		return nil, fmt.Errorf("bcf: no proof service configured")
	}
	if req.Path == (verifier.Path{}) {
		return nil, fmt.Errorf("bcf: empty analysis path")
	}

	// 1. Backward analysis finds how far back the track reaches.
	var back int
	if r.DisableBackward {
		back = req.Path.Len() - 1
	} else {
		back = backwardAnalysis(req.Prog, req.Path, req.Reg)
	}

	// A request whose key was proven earlier in this load is granted at once.
	r.memoKey(req, back)
	if _, hit := r.proven[string(r.key)]; !hit {
		if err := r.prove(req, back, rs); err != nil {
			return nil, err
		}
	}
	if req.WantLo > req.WantHi {
		return &verifier.RefineResult{Pruned: true, Anchor: back + 1}, nil
	}
	return &verifier.RefineResult{Lo: req.WantLo, Hi: req.WantHi, Anchor: back + 1}, nil
}

// memoKey builds in r.key all that the request's condition depends on.
// The tracker starts from fresh variables and reads only the program
// along the suffix's steps, so equal keys track to equal conditions.
func (r *Refiner) memoKey(req *verifier.RefineRequest, back int) {
	reg := &req.State.Regs[req.Reg]
	r.key = append(r.key[:0], byte(req.Reg), byte(reg.Type))
	if reg.Type.IsPtr() {
		r.key = binary.AppendVarint(r.key, int64(reg.Off))
	}
	r.key = binary.LittleEndian.AppendUint64(r.key, req.WantLo) // WantLo > WantHi asks for a prune
	r.key = binary.LittleEndian.AppendUint64(r.key, req.WantHi)
	for step := range req.Path.Backward() { // the back+1 newest steps
		idx := int64(step.Idx)
		if step.Taken {
			idx = ^idx
		}
		r.key = binary.AppendVarint(r.key, idx)
		if back--; back < 0 {
			break
		}
	}
}

// prove tracks the suffix, builds the refinement condition and delegates it.
func (r *Refiner) prove(req *verifier.RefineRequest, back int, rs *RequestStats) error {
	// 2. Symbolic tracking re-executes the suffix, the only part of the
	// path that is copied, into the round's one term table.
	tk := newTracker(req.Prog)
	err := tk.run(req.Path.Tail(back + 1))
	rs.TrackDuration = time.Since(rs.Start)
	if err != nil {
		return err
	}

	// Prune requests (WantLo > WantHi): no variable range can satisfy the
	// failed check, so the only repair is proving the path constraints
	// unsatisfiable (paper §6.2.1, Listing 8: rejection on an unreachable
	// path). The condition is simply ¬pathC.
	if req.WantLo > req.WantHi {
		if len(tk.constr) == 0 {
			return fmt.Errorf("bcf: no path constraints to refute")
		}
		return r.delegate(tk.tab.BoolNot(tk.tab.Conj(tk.constr...)), tk, rs)
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
			return fmt.Errorf("bcf: symbolic state disagrees with verifier (pointer vs scalar)")
		}
		target = tv.e
	case regState.Type.IsPtr():
		if tv.kind == kindScalar {
			return fmt.Errorf("bcf: pointer target not symbolically tracked")
		}
		target = tk.fold(tk.tab.Sub(tv.e, tk.tab.Const(uint64(int64(regState.Off)), 64)))
	default:
		return fmt.Errorf("bcf: target register is uninitialized")
	}

	// 4. Build the refinement condition: pathC ⇒ target ∈ [WantLo, WantHi]
	// (Figure 5: the symbolic values must be contained in the refined
	// abstraction, under the suffix's path constraints).
	bound := tk.tab.Ule(target, tk.tab.Const(req.WantHi, 64))
	if req.WantLo > 0 {
		bound = tk.tab.BoolAnd(tk.tab.Ule(tk.tab.Const(req.WantLo, 64), target), bound)
	}
	cond := bound
	if len(tk.constr) > 0 {
		cond = tk.tab.Implies(tk.tab.Conj(tk.constr...), bound)
	}
	return r.delegate(cond, tk, rs)
}

// delegate ships the condition to user space and validates the returned
// proof with the in-kernel checker (§4 steps 2 and 3). The condition
// object itself never leaves kernel space; only its encoding does, and
// the proof must establish exactly the stored condition. A checked
// request's key enters the memo while the kept keys fit in MaxCondBytes;
// past that, repeats just ship again.
func (r *Refiner) delegate(cond *expr.Expr, tk *tracker, rs *RequestStats) error {
	encStart := time.Now()
	condBytes, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond})
	userStart := time.Now()
	rs.EncodeDuration = userStart.Sub(encStart)
	if err != nil {
		return fmt.Errorf("bcf: encoding condition: %w", err)
	}
	// The user time covers the whole kernel→user→kernel round trip:
	// the limit checks, loader work and prover time.
	rs.TrackLen = tk.steps
	rs.CondBytes = len(condBytes)
	proofBytes, err := r.ship(condBytes)
	checkStart := time.Now()
	rs.UserDuration = checkStart.Sub(userStart)
	r.stats.UserTime += rs.UserDuration
	if err != nil {
		// The user error keeps its own class (solver timeout, protocol,
		// counterexample = unsafe); unclassified failures stay unclassified
		// and default to an unsafe rejection upstream.
		return fmt.Errorf("bcf: user space produced no proof: %w", err)
	}

	pf, err := bcfenc.DecodeProofIn(cond.Table(), proofBytes)
	if err == nil {
		err = proof.Check(cond, pf)
	}
	rs.CheckDuration = time.Since(checkStart)
	rs.ProofBytes = len(proofBytes)
	if err != nil {
		return bcferr.Wrap(bcferr.ClassProofRejected,
			fmt.Errorf("bcf: proof rejected: %w", err))
	}
	if r.keyBytes+len(r.key) <= r.Limits.WithDefaults().MaxCondBytes {
		if r.proven == nil {
			r.proven = map[string]struct{}{}
		}
		r.proven[string(r.key)] = struct{}{}
		r.keyBytes += len(r.key)
	}
	return nil
}

// ship calls user space with one condition within the load's Limits,
// keeping the traffic totals they are checked against.
func (r *Refiner) ship(cond []byte) ([]byte, error) {
	lim := r.Limits.WithDefaults()
	if len(r.stats.Requests) >= lim.MaxRequests {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d refinement requests", lim.MaxRequests)
	}
	r.stats.CondBytes += len(cond)
	if r.stats.CondBytes > lim.MaxCondBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative condition bytes", lim.MaxCondBytes)
	}
	pb, err := r.Service.Prove(cond)
	r.stats.ProofBytes += len(pb)
	if r.stats.ProofBytes > lim.MaxProofBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative proof bytes", lim.MaxProofBytes)
	}
	return pb, err
}
