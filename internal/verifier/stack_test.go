package verifier

import (
	"testing"

	"bcf/internal/ebpf"
)

// setSlot stores frame slot i of a standalone state through the live
// state's setSlot, with no branch pending, so nothing is logged.
func setSlot(st *VState, i int, slot StackSlot) {
	v := &Verifier{st: *st}
	v.setSlot(i, slot)
	*st = v.st
}

// stackState builds an entry state with the given frame slots, keyed by
// their fp-relative offset (-8 … -512).
func stackState(slots map[int]StackSlot) *VState {
	st := entryState()
	for off, s := range slots {
		setSlot(&st, NumStackSlots+off/8, s)
	}
	return &st
}

func spillConst(c uint64) StackSlot { return StackSlot{Kind: SlotSpill, Spill: constScalar(c)} }

var (
	miscSlot = StackSlot{Kind: SlotMisc}
	zeroSlot = StackSlot{Kind: SlotZero}
)

// statesSubsumeFullFrame is statesSubsume over a fixed 64-slot frame,
// the reference the depth-sized comparison must agree with.
func statesSubsumeFullFrame(old, new *VState) bool {
	if old.PktRange > new.PktRange {
		return false
	}
	ids := &idMap{}
	for i := range old.Regs {
		if !regSubsumes(&old.Regs[i], &new.Regs[i], ids) {
			return false
		}
	}
	for i := range NumStackSlots {
		o, n := old.slot(i), new.slot(i)
		if !slotSubsumes(&o, &n, ids) {
			return false
		}
	}
	return true
}

func TestStackDepthIsDeepestWrite(t *testing.T) {
	st := entryState()
	if len(st.Stack) != 0 {
		t.Fatalf("entry state has %d stack slots, want 0", len(st.Stack))
	}
	setSlot(&st, NumStackSlots-8, miscSlot) // fp-64
	if len(st.Stack) != 8 {
		t.Fatalf("a write at fp-64 gave depth %d, want 8", len(st.Stack))
	}
	setSlot(&st, NumStackSlots-1, spillConst(1)) // fp-8: no growth
	if len(st.Stack) != 8 {
		t.Fatalf("a write at fp-8 changed depth to %d, want 8", len(st.Stack))
	}
	for i := range NumStackSlots - 8 {
		if k := st.slot(i).Kind; k != SlotInvalid {
			t.Fatalf("slot %d past the depth reads %v, want SlotInvalid", i, k)
		}
	}
	setSlot(&st, 0, miscSlot) // fp-512
	if len(st.Stack) != NumStackSlots {
		t.Fatalf("a write at fp-512 gave depth %d, want %d", len(st.Stack), NumStackSlots)
	}
}

// A clone shares no Stack storage with its origin, in either direction
// and whether or not a write grows the stack.
func TestCloneSharesNoStack(t *testing.T) {
	orig := stackState(map[int]StackSlot{-8: spillConst(5), -16: miscSlot})
	c := orig.clone(nil)
	c.Stack[0].Spill.UMax = 99
	setSlot(c, NumStackSlots-2, zeroSlot)
	setSlot(c, 0, miscSlot)
	if got := orig.slot(NumStackSlots - 1); got != spillConst(5) {
		t.Errorf("mutating the clone's spill changed the origin: %+v", got)
	}
	if got := orig.slot(NumStackSlots - 2); got != miscSlot {
		t.Errorf("overwriting a clone slot changed the origin: %+v", got)
	}
	if len(orig.Stack) != 2 {
		t.Errorf("growing the clone changed the origin's depth to %d", len(orig.Stack))
	}
	setSlot(orig, NumStackSlots-1, miscSlot)
	if got := c.slot(NumStackSlots - 1); got.Kind != SlotSpill || got.Spill.UMax != 99 {
		t.Errorf("mutating the origin changed the clone: %+v", got)
	}
}

// statesSubsume answers as the full-frame comparison does when old and
// new have different allocated depths.
func TestStatesSubsumeAcrossStackDepths(t *testing.T) {
	cases := []struct {
		name     string
		old, new map[int]StackSlot
		want     bool
	}{
		{"both empty", nil, nil, true},
		{"old shallower, misc over a spill", map[int]StackSlot{-8: miscSlot},
			map[int]StackSlot{-8: spillConst(5), -64: spillConst(7)}, true},
		{"old shallower, spill mismatch", map[int]StackSlot{-8: spillConst(4)},
			map[int]StackSlot{-8: spillConst(5), -64: spillConst(7)}, false},
		{"old deeper, spill past new's depth", map[int]StackSlot{-8: miscSlot, -64: spillConst(7)},
			map[int]StackSlot{-8: spillConst(5)}, false},
		{"old deeper, misc past new's depth", map[int]StackSlot{-8: spillConst(5), -64: miscSlot},
			map[int]StackSlot{-8: spillConst(5)}, true},
		{"fp-512 spill in old only", map[int]StackSlot{-512: spillConst(3)},
			map[int]StackSlot{-8: miscSlot}, false},
		{"fp-512 spill in new only", map[int]StackSlot{-8: miscSlot},
			map[int]StackSlot{-512: spillConst(3)}, true},
		{"fp-512 spill in both", map[int]StackSlot{-512: spillConst(3)},
			map[int]StackSlot{-512: spillConst(3), -8: miscSlot}, true},
		{"zero vs zero spill, new deeper", map[int]StackSlot{-16: zeroSlot},
			map[int]StackSlot{-16: spillConst(0), -256: spillConst(9)}, true},
		{"zero vs zero spill, old deeper", map[int]StackSlot{-16: zeroSlot, -256: miscSlot},
			map[int]StackSlot{-16: spillConst(0)}, true},
		{"zero past new's depth", map[int]StackSlot{-16: zeroSlot}, nil, false},
		{"zero vs non-zero spill", map[int]StackSlot{-16: zeroSlot},
			map[int]StackSlot{-16: spillConst(1)}, false},
		{"zero spill vs zero", map[int]StackSlot{-16: spillConst(0)},
			map[int]StackSlot{-16: zeroSlot}, false},
	}
	for _, c := range cases {
		old, new := stackState(c.old), stackState(c.new)
		if got := statesSubsume(old, new, &idMap{}); got != c.want {
			t.Errorf("%s: statesSubsume = %v, want %v", c.name, got, c.want)
		}
		if ref := statesSubsumeFullFrame(old, new); ref != c.want {
			t.Errorf("%s: full-frame reference = %v, want %v", c.name, ref, c.want)
		}
	}
}

// TestStatesSubsumeAllocsZero pins that a subsumption check allocates
// nothing: the identity map is a reused fixed array, also for states
// whose scalar IDs link registers with spilled slots.
func TestStatesSubsumeAllocsZero(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	linked := func(id uint32) *VState {
		st := entryState()
		r := unknownScalar()
		r.UMax, r.ID = 100, id
		r.sync()
		st.Regs[ebpf.R6], st.Regs[ebpf.R7] = r, r
		setSlot(&st, NumStackSlots-1, StackSlot{Kind: SlotSpill, Spill: r})
		setSlot(&st, NumStackSlots-3, StackSlot{Kind: SlotSpill, Spill: r})
		return &st
	}
	old, cur := linked(7), linked(9)
	broken := linked(9)
	broken.Stack[2].Spill.ID = 10
	var ids idMap
	if !statesSubsume(old, cur, &ids) {
		t.Fatal("a consistently renamed linkage must subsume")
	}
	if statesSubsume(old, broken, &ids) {
		t.Fatal("a spill that breaks the old linkage must not subsume")
	}
	if n := testing.AllocsPerRun(100, func() {
		statesSubsume(old, cur, &ids)
		statesSubsume(old, broken, &ids)
	}); n != 0 {
		t.Errorf("statesSubsume allocates %v times per call pair, want 0", n)
	}
}

// A stack slot the fall-through writes, growing the frame, is undone
// when the walk backtracks to the taken side, which passes it
// uninitialized as a map key.
func TestStackWriteUndoneOnBacktrack(t *testing.T) {
	mustReject(t, mapProg(`
		r2 = *(u32 *)(r1 +0)
		if r2 == 0 goto lookup
		*(u32 *)(r10 -4) = 0
		r0 = 0
		exit
	lookup:
		r1 = map[0]
		r2 = r10
		r2 += -4
		call 1
		r0 = 0
		exit
	`, testMap16), "invalid indirect read from stack")
}
