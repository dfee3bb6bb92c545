package verifier

import (
	"fmt"
	"math"
	"testing"

	"bcf/internal/ebpf"
)

// Regression tests for the two soundness bugs the fuzz campaign found at
// seed 202 (corpus twins: spill-partial-zero.bpfasm and
// refine-prune-retract.bpfasm).

// A u32 zero store over the upper half of a slot holding a u64 spill
// must not mark the slot known-zero: the spill's low word survives, so
// the fill yields untracked bytes and the wild pointer offset below is
// rejected. Before the fix the fill read abstract const 0 and the
// access was accepted while concrete executions faulted.
func TestPartialZeroStoreOverSpill(t *testing.T) {
	p := mapProg(lookupPrologue+`
	r6 = r0
	r7 = *(u64 *)(r6 +0)
	*(u64 *)(r10 -8) = r7
	*(u32 *)(r10 -4) = 0
	r9 = *(u64 *)(r10 -8)
	r1 = r6
	r1 += r9
	r0 = *(u32 *)(r1 +0)
`+lookupEpilogue, testMap16)
	mustReject(t, p, "min value is negative")
}

// Control: a full-slot u64 zero store over the spill legitimately makes
// the slot zero, the fill is const 0, and the access verifies.
func TestFullZeroStoreOverSpill(t *testing.T) {
	p := mapProg(lookupPrologue+`
	r6 = r0
	r7 = *(u64 *)(r6 +0)
	*(u64 *)(r10 -8) = r7
	*(u64 *)(r10 -8) = 0
	r9 = *(u64 *)(r10 -8)
	r1 = r6
	r1 += r9
	r0 = *(u32 *)(r1 +0)
`+lookupEpilogue, testMap16)
	mustAccept(t, p)
}

// Control: a partial zero store over an already-zero slot keeps it zero.
func TestPartialZeroStoreOverZeroSlot(t *testing.T) {
	p := mapProg(lookupPrologue+`
	r6 = r0
	*(u64 *)(r10 -8) = 0
	*(u32 *)(r10 -4) = 0
	r9 = *(u64 *)(r10 -8)
	r1 = r6
	r1 += r9
	r0 = *(u32 *)(r1 +0)
`+lookupEpilogue, testMap16)
	mustAccept(t, p)
}

// anchorRefiner grants the first refinement as "path infeasible" with a
// configurable track anchor and fails every later request, so the
// test's verdict is decided by whether the pruning entries recorded by
// the first path survive for the second.
type anchorRefiner struct {
	anchor func(Path) int
	calls  int
}

func (r *anchorRefiner) Refine(req *RefineRequest) (*RefineResult, error) {
	r.calls++
	if r.calls > 1 {
		return nil, fmt.Errorf("no more proofs")
	}
	return &RefineResult{Pruned: true, Anchor: r.anchor(req.Path)}, nil
}

// refinePruneProg forks two histories at a `goto +0` no-op branch that
// converge with identical register states (r8 &= 0 and r0 = 0 erase the
// JSET knowledge — r8 and r0 share an ID, so the branch refined both),
// then fails a bounds check on both. The first path's "infeasibility"
// proof must not let the explored-state table prune the second path
// past the check when the proof's track reaches back across the
// recorded entries. The resolved `if r9 != 0` and the r7 padding make
// the kernel's add rule record the first path's state just before the
// fork and again at the join (`r1 = r6`, pc refineJoin), not at the
// fork's target, where the two paths still differ.
func refinePruneProg() *ebpf.Program {
	return mapProg(lookupPrologue+`
	r6 = r0
	call 7
	r8 = r0
	r9 = 0
	if r9 != 0 goto +0
	r7 = 0
	r7 += 1
	r7 += 1
	r7 += 1
	if r8 & -6 goto +0
	r0 = 0
	r8 &= 0
	if r8 <= 45 goto +1
	r9 = 1
	r1 = r6
	r1 += r8
	r0 = *(u32 *)(r1 +16)
`+lookupEpilogue, testMap16)
}

// refineJoin is the pc of refinePruneProg's `r1 = r6`.
const refineJoin = 21

// joinEntry is the state refinePruneProg's first path recorded at the
// join: the test fails if the kernel's add rule no longer records it.
func joinEntry(t *testing.T, v *Verifier) *exploredEntry {
	t.Helper()
	if len(v.explored[refineJoin]) == 0 {
		t.Fatalf("no state recorded at the join (pc %d): the test is vacuous", refineJoin)
	}
	return &v.explored[refineJoin][0]
}

// Track anchored at the path start: every entry the first path recorded
// is inside the track and must be retracted, so the second path reaches
// the failed check itself, its refinement fails, and the program is
// rejected. Before the fix the second path was pruned and the program
// accepted despite a concrete out-of-bounds read. An anchor left at its
// zero value means the whole path, so it must behave identically.
func TestRefinementRetractsTrackEntries(t *testing.T) {
	anchors := []struct {
		name   string
		anchor func(Path) int
	}{
		{"path start", Path.Len},
		{"zero value", func(Path) int { return 0 }},
	}
	for _, a := range anchors {
		ref := &anchorRefiner{anchor: a.anchor}
		v := New(refinePruneProg(), Config{Refiner: ref})
		if err := v.Verify(); err == nil {
			t.Fatalf("%s: expected rejection: second path must not be pruned by a path-conditionally refined entry", a.name)
		}
		if ref.calls < 2 {
			t.Fatalf("%s: refiner called %d times, want 2: the second path never reached the check", a.name, ref.calls)
		}
		if !joinEntry(t, v).dead {
			t.Fatalf("%s: the join's entry, inside the track, was not retracted", a.name)
		}
		want := Stats{InsnProcessed: 28, PathsExplored: 2, PeakStackDepth: 2, Refinements: 1, RefineAttempts: 2, StatesRecorded: 2}
		if st := v.Stats(); st != want {
			t.Fatalf("%s: stats drifted: got %+v, want %+v", a.name, st, want)
		}
	}
}

// Track anchored at the failing access itself: the proof covers any
// execution reaching that instruction, entries before the anchor remain
// valid, and the identical-state second path may legitimately prune.
// Pins that retraction does not overreach.
func TestRefinementKeepsPreTrackEntries(t *testing.T) {
	ref := &anchorRefiner{anchor: func(Path) int { return 1 }}
	v := New(refinePruneProg(), Config{Refiner: ref})
	if err := v.Verify(); err != nil {
		t.Fatalf("expected accept (second path pruned by a still-valid entry), got: %v", err)
	}
	if ref.calls != 1 {
		t.Fatalf("refiner called %d times, want 1", ref.calls)
	}
	if e := joinEntry(t, v); e.dead || e.hits != 1 {
		t.Fatalf("the join's entry: dead %v, %d hits; want live, pruning the second path", e.dead, e.hits)
	}
	want := Stats{InsnProcessed: 28, PathsExplored: 3, StatesPruned: 1, PeakStackDepth: 2, Refinements: 1, RefineAttempts: 1, StatesRecorded: 2}
	if st := v.Stats(); st != want {
		t.Fatalf("stats drifted: got %+v, want %+v", st, want)
	}
}

// 32-bit OR and XOR copy the unsigned result range into the signed one
// when both operands are non-negative, and take the unsigned maximum
// from the tnum. One sync can leave the low word's tnum sign bit unknown
// while its bounds know the bit is clear: below, the 64-bit signed range
// turns non-negative only after the tnum is narrowed. Copying that
// maximum left an empty s32 range, which admits no concrete result.
func TestAlu32OrXorSignBitUnknownToTnum(t *testing.T) {
	r := unknownScalar()
	r.UMax = 2358161854
	r.SMin, r.SMax = -3940278922, 460789998
	r.S32Min, r.S32Max = -39785, 6363428
	r.sync()
	if r.S32Min < 0 || r.Var.Mask&(1<<31) == 0 {
		t.Fatalf("fixture lost its shape (non-negative low word, tnum sign bit unknown): %+v", boundsOf(&r))
	}
	for _, op := range []uint8{ebpf.AluOR, ebpf.AluXOR} {
		d, zero := r, constScalar(0)
		aluScalar(&d, &zero, op, true)
		if !d.wellFormed() || !d.contains(6363428) {
			t.Errorf("w %s= 0 on %+v gave %+v, which excludes 6363428", ebpf.AluOpName(op), boundsOf(&r), boundsOf(&d))
		}
	}
}

// A taken JMP32 JSET with a single-bit mask sets that bit of the low
// word, whether the mask is written as 0x80000000 or as the immediate
// -2^31 (sign-extended to 0xffffffff80000000 in the source register).
// Before the fix the power-of-two test ran on the 64-bit constant, so
// `if w1 & 0x80000000` written with the immediate taught nothing.
func TestJmp32JsetSignExtendedMask(t *testing.T) {
	for _, mask := range []uint64{0x80000000, 0xffffffff80000000} {
		d, s := unknownScalar(), constScalar(mask)
		regSetMinMax(&d, &s, ebpf.JmpJSET, true, true)
		if d.Var.Value&(1<<31) == 0 || d.Var.Mask&(1<<31) != 0 {
			t.Errorf("mask %#x: bit 31 not known set: %+v", mask, boundsOf(&d))
		}
		if d.S32Min != math.MinInt32 || d.S32Max != -1 {
			t.Errorf("mask %#x: S32 [%d, %d], want [%d, -1]", mask, d.S32Min, d.S32Max, math.MinInt32)
		}
		if !d.wellFormed() || !d.contains(0xffffffff) || !d.contains(0x80000000) {
			t.Errorf("mask %#x: refinement excludes a value with bit 31 set: %+v", mask, boundsOf(&d))
		}
	}
}

// Each side of a fork refines its own copy of the jump's immediate. The
// taken side of `if r2 == 4` intersects r2's odd tnum with the constant
// 4; when both sides shared one immediate, that intersection (5) became
// the constant the fall-through excluded, so r2 == 5, which reaches the
// access below, was dropped and a one-byte out-of-bounds read accepted.
func TestForkSidesRefineOwnImmediate(t *testing.T) {
	p := mapProg(`
		r6 = r1
`+lookupPrologue+`
		r2 = *(u32 *)(r6 +0)
		r2 &= 7
		r2 |= 1
		if r2 > 5 goto miss
		if r2 == 4 goto miss
		r0 += r2
		r0 = *(u64 *)(r0 +4)
`+lookupEpilogue, testMap16)
	mustReject(t, p, "R0 max offset 9")
}
