package verifier

import (
	"math/rand"
	"testing"

	"bcf/internal/ebpf"
)

// edgeState draws a state whose registers are edgeScalar values (one in
// eight a constant), pointers or uninitialized, with a spilled scalar
// and a stack pointer like a real frame's.
func edgeState(rng *rand.Rand) *VState {
	st := entryState()
	for r := ebpf.R0; r < ebpf.R10; r++ {
		switch rng.Intn(6) {
		case 0:
			st.Regs[r] = RegState{}
		case 1:
			st.Regs[r] = RegState{Type: PtrToMapValue, Off: int32(rng.Intn(3))}
			st.Regs[r].zeroVar()
		default:
			st.Regs[r], _ = edgeScalar(rng)
		}
	}
	spill, _ := edgeScalar(rng)
	setSlot(&st, NumStackSlots-1, StackSlot{Kind: SlotSpill, Spill: spill})
	return &st
}

// concretize copies st with each scalar register, one time in two,
// narrowed to the constant of one of its members: a state st subsumes.
func concretize(rng *rand.Rand, st *VState) *VState {
	c := st.clone(nil)
	for i := range c.Regs {
		r := &c.Regs[i]
		if m := sampleMember(rng, r, r.UMin); r.Type == Scalar && rng.Intn(2) == 0 && r.contains(m) {
			*r = constScalar(m)
		}
	}
	return c
}

// TestPruneKeyAdmitsSubsumedPairs checks the pruning table's key, a
// necessary condition of statesSubsume, on drawn state pairs: whenever
// the recorded state subsumes the new one, its key admits it. Half the
// pairs are a state and a narrowing of it, which it subsumes; the rest
// are independent draws, which it mostly does not. The corpus's and the
// generated programs' recorded states are checked in
// TestPruneKeyOnRecordedStates.
func TestPruneKeyAdmitsSubsumedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100_000
	if RaceEnabled {
		n = 10_000
	}
	var subsumed, refuted int
	for range n {
		old := edgeState(rng)
		new := edgeState(rng)
		if rng.Intn(2) == 0 {
			new = concretize(rng, old)
		}
		e := RecordPruneEntry(old)
		subsumes, admitted := e.Compare(new)
		if subsumes {
			subsumed++
			if !admitted {
				t.Fatalf("key refutes a subsumed pair:\nold %+v\nnew %+v", old.Regs, new.Regs)
			}
		} else if !admitted {
			refuted++
		}
	}
	if subsumed < n/4 {
		t.Errorf("only %d of %d pairs subsume: the check is near vacuous", subsumed, n)
	}
	t.Logf("%d pairs: %d subsumed, %d of the rest refuted by the key", n, subsumed, refuted)
}
