package verifier

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
)

// verifyStats runs one verification and returns its error and stats.
func verifyStats(p *ebpf.Program, limit int) (error, Stats) {
	v := New(p, Config{InsnLimit: limit})
	err := v.Verify()
	return err, v.Stats()
}

// asVerifierError unwraps err into the verifier's structured Error.
func asVerifierError(t *testing.T, err error) *Error {
	t.Helper()
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatalf("not a verifier.Error: %v", err)
	}
	return ve
}

// goid returns the current goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// goidObserver records the goroutines the verifier's Observe calls run on.
type goidObserver map[string]bool

func (o goidObserver) Observe(any, Event) any {
	o[goid()] = true
	return nil
}

// TestSharedFieldsPrecomputed pins the tables New builds before the
// first walk: the walk reads them and never initializes them lazily.
func TestSharedFieldsPrecomputed(t *testing.T) {
	p := mapProg(`
		r2 = *(u32 *)(r1 +0)
		if r2 == 0 goto out
		r0 = 1
		exit
	out:
		r0 = 0
		exit
	`)
	v := New(p, Config{})
	if v.prunePoints == nil {
		t.Fatal("prunePoints not precomputed in New")
	}
	if len(v.prunePoints) != len(p.Insns) {
		t.Fatalf("prunePoints sized %d, want %d", len(v.prunePoints), len(p.Insns))
	}
	if len(v.explored) != len(p.Insns) {
		t.Fatalf("explored table sized %d, want one list per insn (%d)", len(v.explored), len(p.Insns))
	}
	if v.budgetErr == nil {
		t.Fatal("budget error not preallocated in New")
	}
	// The branch target and the fallthrough are prune points.
	if v.prunePoints[2] != prunePoint || v.prunePoints[4] != prunePoint {
		t.Fatalf("prune points wrong: %v", v.prunePoints)
	}
}

// TestFirstErrorInDFSOrder pins which of several failing paths a load
// reports: the first one the DFS walks, the fall-through before the
// taken side, with identical error and Stats on every run.
func TestFirstErrorInDFSOrder(t *testing.T) {
	twoFailing := mapProg(`
		r2 = *(u32 *)(r1 +0)
		if r2 == 0 goto other
		r3 = r2
		r3 &= 7
		r0 = *(u64 *)(r10 -520)
		exit
	other:
		r4 = r2
		r4 &= 15
		r0 = *(u64 *)(r10 -600)
		exit
	`)
	err, _ := verifyStats(twoFailing, 0)
	if err == nil {
		t.Fatal("expected rejection")
	}
	if ve := asVerifierError(t, err); !strings.Contains(ve.Msg, "-520") {
		t.Fatalf("the DFS should report the fall-through error, got %v", err)
	}
	// Many failing paths in a wide fan-out.
	wide := corpus.ParallelStress(8, 4, 3)
	wantErr, wantStats := verifyStats(wide, 0)
	if wantErr == nil {
		t.Fatal("expected rejection from the faulty stress program")
	}
	for range 3 {
		err, st := verifyStats(wide, 0)
		if err == nil || err.Error() != wantErr.Error() || st != wantStats {
			t.Fatalf("rerun diverged: %v %+v, want %v %+v", err, st, wantErr, wantStats)
		}
	}
}

// TestExplorationStatsPinned pins the DFS's full Stats on a fan-out whose
// paths never prune and on a diamond ladder whose paths do, and that
// every walk runs on the goroutine that called Verify.
func TestExplorationStatsPinned(t *testing.T) {
	// 2^10 mutually incomparable paths, none subsumed. A rung is 5 or 6
	// instructions and one jump, so the kernel's add rule (2 jumps and 8
	// instructions since the last record, counted over the whole DFS)
	// records at most every second prune-point arrival: 1,023 states,
	// most of them into the snapshots of evicted entries.
	err, st := verifyStats(corpus.ParallelStress(10, 16, 0), 0)
	if err != nil {
		t.Fatalf("stress program should verify: %v", err)
	}
	if st.PathsExplored != 1024 || st.StatesPruned != 0 || st.StatesRecorded != 1023 {
		t.Fatalf("fan-out stats: %+v, want 1,024 paths, no prunes and 1,023 recorded states", st)
	}
	ladder := mapProg(`
		r6 = r1
		r0 = 0
	` + strings.Repeat(`
		r2 = *(u32 *)(r6 +0)
		if r2 == 0 goto +1
		r0 += 0
	`, 24) + `
		exit
	`)
	// A rung is 3 instructions, so a path records every third rung and
	// an arrival at an unrecorded rung walks on to the next recorded one.
	err, st = verifyStats(ladder, 0)
	if err != nil {
		t.Fatalf("ladder should verify: %v", err)
	}
	if want := (Stats{InsnProcessed: 318, PathsExplored: 89, StatesPruned: 84, PeakStackDepth: 24, StatesRecorded: 32}); st != want {
		t.Fatalf("ladder stats drifted: got %+v, want %+v", st, want)
	}
	walkers := goidObserver{}
	if err := New(ladder, Config{Observer: walkers}).Verify(); err != nil ||
		len(walkers) != 1 || !walkers[goid()] {
		t.Fatalf("walks ran on goroutines %v, caller %s (err %v)", walkers, goid(), err)
	}
}

// TestParallelInsnLimitHardCap pins the instruction budget as a hard cap
// on a loop that never prunes and on a wide fan-out whose parallel paths
// share one budget: the load stops at exactly the limit, with a pc-less
// rejection, identically on every run.
func TestParallelInsnLimitHardCap(t *testing.T) {
	loop := mapProg(`
		r6 = r1
		r0 = 0
	loop:
		r0 += 1
		r2 = *(u32 *)(r6 +0)
		if r2 != 0 goto loop
		exit
	`)
	for _, c := range []struct {
		p     *ebpf.Program
		limit int
	}{{loop, 1000}, {corpus.ParallelStress(9, 8, 0), 2000}} {
		wantErr, wantStats := verifyStats(c.p, c.limit)
		if wantErr == nil || !strings.Contains(wantErr.Error(), "too large") {
			t.Fatalf("expected insn-limit rejection, got %v", wantErr)
		}
		if ve := asVerifierError(t, wantErr); ve.InsnIdx != -1 || ve.Kind != CheckOther {
			t.Fatalf("budget rejection at insn %d kind %v, want -1 and other", ve.InsnIdx, ve.Kind)
		}
		if wantStats.InsnProcessed != c.limit {
			t.Fatalf("InsnProcessed %d, want the limit %d", wantStats.InsnProcessed, c.limit)
		}
		for range 3 {
			err, st := verifyStats(c.p, c.limit)
			if err == nil || err.Error() != wantErr.Error() || st != wantStats {
				t.Fatalf("rerun diverged: %v %+v, want %v %+v", err, st, wantErr, wantStats)
			}
		}
	}
}
