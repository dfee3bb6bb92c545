package verifier

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
)

// verifyAt runs one verification with the given worker count.
func verifyAt(p *ebpf.Program, workers int, limit int) (error, Stats) {
	v := New(p, Config{ParallelPaths: workers, InsnLimit: limit})
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

// sameError fails the test unless both errors are nil or both carry the
// same (InsnIdx, Kind, Msg).
func sameError(t *testing.T, want, got error, ctx string) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: verdict mismatch: want err=%v, got err=%v", ctx, want, got)
	}
	if want == nil {
		return
	}
	w, g := asVerifierError(t, want), asVerifierError(t, got)
	if w.InsnIdx != g.InsnIdx || w.Kind != g.Kind || w.Msg != g.Msg {
		t.Fatalf("%s: error mismatch:\nwant insn %d kind %v msg %q\ngot  insn %d kind %v msg %q",
			ctx, w.InsnIdx, w.Kind, w.Msg, g.InsnIdx, g.Kind, g.Msg)
	}
}

// goid returns the current goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// goidObserver records the goroutines the verifier's Step calls run on.
type goidObserver map[string]bool

func (o goidObserver) Step(parent any, pc int, st *VState) any {
	o[goid()] = true
	return nil
}

// TestSharedFieldsPrecomputed pins the shared-state construction fixes:
// everything the walk loop reads concurrently must exist before the
// first walk starts, not be initialized lazily from inside it.
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
		t.Fatalf("explored table sized %d, want one shard per insn (%d)", len(v.explored), len(p.Insns))
	}
	if v.budgetErr == nil {
		t.Fatal("budget error not preallocated in New")
	}
	// The bitmap must match what the old lazy builder produced: the
	// branch target and the fallthrough are prune points.
	if !v.prunePoints[2] || !v.prunePoints[4] {
		t.Fatalf("prune points wrong: %v", v.prunePoints)
	}
}

// TestParallelInsnLimitHardCap pins that the instruction budget is a
// hard global cap at any worker count: InsnProcessed never exceeds the
// limit and the budget rejection is identical everywhere.
func TestParallelInsnLimitHardCap(t *testing.T) {
	// r0 differs on every iteration, defeating pruning, so the analysis
	// runs until the budget is exhausted (same fixture as TestInsnLimit).
	loop := mapProg(`
		r6 = r1
		r0 = 0
	loop:
		r0 += 1
		r2 = *(u32 *)(r6 +0)
		if r2 != 0 goto loop
		exit
	`)
	const limit = 1000
	want, wantStats := verifyAt(loop, 1, limit)
	if want == nil || !strings.Contains(want.Error(), "too large") {
		t.Fatalf("expected insn-limit rejection, got %v", want)
	}
	if wantStats.InsnProcessed > limit {
		t.Fatalf("sequential InsnProcessed %d exceeds limit %d", wantStats.InsnProcessed, limit)
	}
	for _, workers := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			got, st := verifyAt(loop, workers, limit)
			sameError(t, want, got, "insn limit")
			if st.InsnProcessed > limit {
				t.Fatalf("workers=%d: InsnProcessed %d exceeds limit %d", workers, st.InsnProcessed, limit)
			}
		}
	}
	// Also on a wide frontier, where many workers race the last insns of
	// the budget.
	wide := corpus.ParallelStress(9, 8, 0)
	seqErr, seqStats := verifyAt(wide, 1, 2000)
	if seqErr == nil || !strings.Contains(seqErr.Error(), "too large") {
		t.Fatalf("expected insn-limit rejection on the wide program, got %v", seqErr)
	}
	if seqStats.InsnProcessed > 2000 {
		t.Fatalf("sequential InsnProcessed %d exceeds limit", seqStats.InsnProcessed)
	}
	for _, workers := range []int{2, 8} {
		got, st := verifyAt(wide, workers, 2000)
		sameError(t, seqErr, got, "wide insn limit")
		if st.InsnProcessed > 2000 {
			t.Fatalf("workers=%d: InsnProcessed %d exceeds limit", workers, st.InsnProcessed)
		}
	}
}

// TestParallelErrorDeterminism is the regression test for first-error
// nondeterminism: a program with two failing paths must report the
// identical Error (InsnIdx, Kind, Msg) at every worker count — the one
// the sequential DFS hits first.
func TestParallelErrorDeterminism(t *testing.T) {
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
	want, _ := verifyAt(twoFailing, 1, 0)
	if want == nil {
		t.Fatal("expected rejection")
	}
	// The fallthrough is walked first sequentially, so its error wins.
	if ve := asVerifierError(t, want); !strings.Contains(ve.Msg, "-520") {
		t.Fatalf("sequential DFS should report the fallthrough error, got %v", want)
	}
	for _, workers := range []int{1, 2, 8} {
		for rep := 0; rep < 5; rep++ {
			got, _ := verifyAt(twoFailing, workers, 0)
			sameError(t, want, got, "two failing paths")
		}
	}
	// A harder variant: many failing paths buried in a wide fan-out, so
	// parallel workers genuinely reach the "wrong" errors first.
	wide := corpus.ParallelStress(8, 4, 3)
	wideWant, _ := verifyAt(wide, 1, 0)
	if wideWant == nil {
		t.Fatal("expected rejection from the faulty stress program")
	}
	for _, workers := range []int{2, 8} {
		for rep := 0; rep < 5; rep++ {
			got, _ := verifyAt(wide, workers, 0)
			sameError(t, wideWant, got, "wide fan-out faults")
		}
	}
}

// TestParallelFrontierStress drives a wide branch fan-out (2^10 mutually
// incomparable paths, so the prune table records states at every rung
// without ever firing) through many workers. Run under -race this is the
// frontier/prune-table/stats regression test for the shared-state fixes.
func TestParallelFrontierStress(t *testing.T) {
	prog := corpus.ParallelStress(10, 16, 0)
	wantErr, wantStats := verifyAt(prog, 1, 0)
	if wantErr != nil {
		t.Fatalf("stress program should verify: %v", wantErr)
	}
	for _, workers := range []int{2, 4, 8} {
		got, st := verifyAt(prog, workers, 0)
		if got != nil {
			t.Fatalf("workers=%d: %v", workers, got)
		}
		// Pruning never fires here, so exploration work is identical in
		// any schedule: a cheap full-stats determinism check.
		if st.InsnProcessed != wantStats.InsnProcessed || st.PathsExplored != wantStats.PathsExplored ||
			st.StatesPruned != wantStats.StatesPruned {
			t.Fatalf("workers=%d: stats diverged: want %+v, got %+v", workers, wantStats, st)
		}
	}
	// And a prune-heavy shape: a long diamond ladder whose states do
	// subsume, stressing the order-gated visibility rule.
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
	seqErr, seqStats := verifyAt(ladder, 1, 0)
	if seqErr != nil {
		t.Fatalf("ladder should verify: %v", seqErr)
	}
	// One worker is the sequential DFS, pinned exactly, and it walks every
	// path on the calling goroutine.
	if want := (Stats{InsnProcessed: 168, PathsExplored: 48, StatesPruned: 46, PeakStackDepth: 24}); seqStats != want {
		t.Fatalf("one-worker ladder stats drifted: got %+v, want %+v", seqStats, want)
	}
	walkers := goidObserver{}
	if err := New(ladder, Config{ParallelPaths: 1, Observer: walkers}).Verify(); err != nil ||
		len(walkers) != 1 || !walkers[goid()] {
		t.Fatalf("one-worker walks ran on goroutines %v, caller %s (err %v)", walkers, goid(), err)
	}
	for _, workers := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			got, st := verifyAt(ladder, workers, 0)
			if got != nil {
				t.Fatalf("workers=%d: %v", workers, got)
			}
			if st.StatesPruned == 0 {
				t.Fatalf("workers=%d: expected pruning on the ladder", workers)
			}
		}
	}
}

// TestParallelCorpusDeterminism runs the whole embedded corpus through
// the verifier (no BCF) and requires byte-identical verdicts and error
// identity between ParallelPaths=1 and N, plus a full-stats match
// between repeated sequential runs (the legacy behaviour is still
// exactly deterministic).
func TestParallelCorpusDeterminism(t *testing.T) {
	const limit = 4000 // corpusInsnLimit: keeps the F6 loop family quick
	for _, e := range corpus.Generate() {
		base, baseStats := verifyAt(e.Prog, 1, limit)
		again, againStats := verifyAt(e.Prog, 1, limit)
		sameError(t, base, again, e.Prog.Name+" (sequential rerun)")
		if baseStats != againStats {
			t.Fatalf("%s: sequential stats not reproducible: %+v vs %+v", e.Prog.Name, baseStats, againStats)
		}
		for _, workers := range []int{2, 8} {
			got, st := verifyAt(e.Prog, workers, limit)
			sameError(t, base, got, e.Prog.Name)
			if st.InsnProcessed > limit {
				t.Fatalf("%s: workers=%d InsnProcessed %d exceeds limit", e.Prog.Name, workers, st.InsnProcessed)
			}
		}
	}
}

// TestParallelAcceptedSemantics pins accepted-state semantics on the
// handcrafted accept/reject fixtures: a sample of the unit-test programs
// must keep their verdicts at every worker count.
func TestParallelAcceptedSemantics(t *testing.T) {
	accepts := []*ebpf.Program{
		mapProg(`
			r0 = 0
			exit
		`),
		mapProg(`
			r6 = *(u32 *)(r1 +0)
		`+lookupPrologue+`
			r6 &= 7
			r1 = r0
			r1 += r6
			r0 = *(u8 *)(r1 +0)
			exit
		`+lookupEpilogue, testMap16),
	}
	rejects := []*ebpf.Program{
		mapProg(`
			exit
		`),
		mapProg(`
			r6 = *(u32 *)(r1 +0)
		`+lookupPrologue+`
			r1 = r0
			r1 += r6
			r0 = *(u8 *)(r1 +0)
			exit
		`+lookupEpilogue, testMap16),
	}
	for _, p := range accepts {
		want, _ := verifyAt(p, 1, 0)
		if want != nil {
			t.Fatalf("fixture should accept: %v", want)
		}
		for _, workers := range []int{2, 8} {
			got, _ := verifyAt(p, workers, 0)
			if got != nil {
				t.Fatalf("workers=%d rejected an accepted fixture: %v", workers, got)
			}
		}
	}
	for _, p := range rejects {
		want, _ := verifyAt(p, 1, 0)
		if want == nil {
			t.Fatal("fixture should reject")
		}
		for _, workers := range []int{2, 8} {
			got, _ := verifyAt(p, workers, 0)
			sameError(t, want, got, "reject fixture")
		}
	}
}

// TestOrderBefore exercises the DFS-order comparison directly.
func TestOrderBefore(t *testing.T) {
	root := &pathOrder{}
	child := func(p *pathOrder, seq int32) *pathOrder {
		return &pathOrder{parent: p, depth: p.depth + 1, seq: seq}
	}
	c1, c2 := child(root, 1), child(root, 2)
	g1 := child(c2, 1)
	cases := []struct {
		a, b *pathOrder
		want bool
		name string
	}{
		{root, root, true, "reflexive"},
		{root, c1, true, "ancestor first"},
		{c1, root, false, "descendant later"},
		{c2, c1, true, "later-pushed sibling pops first"},
		{c1, c2, false, "earlier-pushed sibling waits"},
		{g1, c1, true, "whole later-pushed subtree precedes earlier sibling"},
		{c1, g1, false, "earlier sibling after the whole subtree"},
		{c2, g1, true, "parent before its own child"},
		{g1, c2, false, "child after its parent"},
	}
	for _, c := range cases {
		if got := orderBefore(c.a, c.b); got != c.want {
			t.Errorf("%s: orderBefore = %v, want %v", c.name, got, c.want)
		}
	}
}
