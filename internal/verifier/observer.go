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
// (nil at the entry of the initial path); the returned value identifies
// this step and becomes the parent of its successors, including the first
// step of any path forked at a conditional jump. Observers therefore see
// the full analysis tree, with branch forks sharing their prefix.
//
// The *VState is live verifier state: observers must copy what they keep
// and must not mutate it.
//
// Step runs on the goroutine that called Verify, one call at a time, in
// the DFS order of the walk; tokens are handed back unread.
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

// Domain names for Admits.
const (
	DomainTnum = "tnum"
	DomainU64  = "u64"
	DomainS64  = "s64"
	DomainU32  = "u32"
	DomainS32  = "s32"
)

// Admits reports whether concrete value v is admitted by the scalar
// abstraction. When it is not, domain names the first violated domain
// (DomainTnum, DomainU64, DomainS64, DomainU32 or DomainS32), letting
// soundness reports pinpoint the broken transfer function.
func (r *RegState) Admits(v uint64) (ok bool, domain string) {
	if !r.Var.Contains(v) {
		return false, DomainTnum
	}
	if v < r.UMin || v > r.UMax {
		return false, DomainU64
	}
	if int64(v) < r.SMin || int64(v) > r.SMax {
		return false, DomainS64
	}
	v32 := uint32(v)
	if v32 < r.U32Min || v32 > r.U32Max {
		return false, DomainU32
	}
	if int32(v32) < r.S32Min || int32(v32) > r.S32Max {
		return false, DomainS32
	}
	return true, ""
}
