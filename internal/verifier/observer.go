package verifier

import "bcf/internal/tnum"

// Observer receives a callback before every analyzed instruction. It is
// the instrumentation point for differential soundness testing
// (internal/difftest): the observer records the abstract register file at
// each (path, pc) so a concrete execution can later be checked for
// containment at every step.
//
// Step is invoked with the state on arrival at pc, before the
// instruction's checks and transfer function run. parent is the value
// Step returned for the previous instruction on the same analysis path
// (nil at the entry of the initial path); the returned value becomes the
// parent of its successors, including the first step of any path forked
// at a conditional jump, so observers see the analysis tree. Step runs
// on the goroutine that called Verify, one call at a time, in DFS order.
//
// The *VState is the walk's one live state: every instruction changes
// it, and a backtrack to a fork restores it. Observers copy what they
// keep and never mutate it.
type Observer interface {
	Step(parent any, pc int, st *VState) any
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
