package verifier

import (
	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// EventKind says what an Event reports.
type EventKind uint8

const (
	EventInsn         EventKind = iota // Insn at PC is about to be analyzed in State
	EventPruned                        // the state at PC is subsumed by an explored one
	EventPathOK                        // the path exited safely at PC
	EventWidened                       // Reg widened to the declared loop fixpoint [Lo, Hi]
	EventRefined                       // a granted refinement narrowed Reg to [Lo, Hi]
	EventInfeasible                    // a granted refinement proved the path infeasible
	EventRefineFailed                  // the refinement asked for at PC failed with Err
)

// Event is one step of the walk. Only the fields of its kind are set.
type Event struct {
	Kind   EventKind
	PC     int
	Insn   *ebpf.Instruction
	State  *VState
	Reg    ebpf.Reg
	Lo, Hi uint64
	Err    error
}

// Observer is the walk's one reporting channel, read by differential
// soundness testing, the fuzz campaign's coverage map and the loader's
// debug log. Observe runs on Verify's goroutine, once per event, in DFS
// order. parent is what Observe returned for the path's latest
// instruction event (nil before the first); an instruction event's value
// becomes the parent of its successors, forked paths included, so
// observers see the analysis tree. Other kinds' values are ignored.
// State is the walk's one live state, restored on backtrack: observers
// copy what they keep and never mutate it.
type Observer interface {
	Observe(parent any, ev Event) any
}

// Sabotage deliberately weakens the verifier. It exists solely so the
// differential-soundness harness can prove its oracles detect an unsound
// verifier (mutation testing): a harness that stays green while these
// bugs are injected would be vacuous. Never set outside tests.
type Sabotage struct {
	// SkipMemBounds treats failed map-value and stack bounds checks as
	// passed, modeling a missing rejection site.
	SkipMemBounds bool
	// CollapseAddBounds pretends every non-constant 64-bit ADD result is
	// exactly its unsigned minimum, modeling a broken transfer function
	// in the ALU (the tnum and all interval domains become unsound).
	CollapseAddBounds bool
}

// skipsBounds reports whether a failed check of the given kind should be
// ignored under sabotage.
func (s *Sabotage) skipsBounds(k CheckKind) bool {
	return s != nil && s.SkipMemBounds && (k == CheckMapAccess || k == CheckStackAccess)
}

// collapseAdd applies the CollapseAddBounds corruption to an ALU result.
func (s *Sabotage) collapseAdd(r *RegState) {
	if s == nil || !s.CollapseAddBounds || r.Type != Scalar || r.IsConst() {
		return
	}
	v := r.UMin
	r.Var = tnum.Const(v)
	r.UMax = v
	r.SMin, r.SMax = int64(v), int64(v)
	r.U32Min, r.U32Max = uint32(v), uint32(v)
	r.S32Min, r.S32Max = int32(uint32(v)), int32(uint32(v))
}
