package verifier

import (
	"slices"
	"strings"
	"testing"

	"bcf/internal/ebpf"
)

func mapProg(src string, maps ...*ebpf.MapSpec) *ebpf.Program {
	return &ebpf.Program{
		Name:  "test",
		Type:  ebpf.ProgTracepoint,
		Insns: ebpf.MustAssemble(src),
		Maps:  maps,
	}
}

var testMap16 = &ebpf.MapSpec{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}

// lookupPrologue loads map[0] with key 0 and null-checks into r1.
const lookupPrologue = `
	r1 = map[0]
	r2 = r10
	r2 += -4
	*(u32 *)(r10 -4) = 0
	call 1
	if r0 == 0 goto miss
`
const lookupEpilogue = `
miss:
	r0 = 0
	exit
`

func verify(t *testing.T, p *ebpf.Program) error {
	t.Helper()
	v := New(p, Config{})
	return v.Verify()
}

func mustAccept(t *testing.T, p *ebpf.Program) {
	t.Helper()
	if err := verify(t, p); err != nil {
		t.Fatalf("expected accept, got: %v", err)
	}
}

func mustReject(t *testing.T, p *ebpf.Program, msgFragment string) {
	t.Helper()
	err := verify(t, p)
	if err == nil {
		t.Fatalf("expected rejection containing %q, got accept", msgFragment)
	}
	if msgFragment != "" && !strings.Contains(err.Error(), msgFragment) {
		t.Fatalf("expected rejection containing %q, got: %v", msgFragment, err)
	}
}

func TestAcceptTrivial(t *testing.T) {
	mustAccept(t, mapProg(`
		r0 = 0
		exit
	`))
}

func TestRejectUninitR0(t *testing.T) {
	mustReject(t, mapProg(`
		exit
	`), "R0 !read_ok")
}

func TestRejectUninitRegUse(t *testing.T) {
	mustReject(t, mapProg(`
		r0 = r3
		exit
	`), "!read_ok")
}

func TestAcceptStackRoundTrip(t *testing.T) {
	mustAccept(t, mapProg(`
		r1 = 77
		*(u64 *)(r10 -8) = r1
		r0 = *(u64 *)(r10 -8)
		exit
	`))
}

func TestRejectStackOOB(t *testing.T) {
	mustReject(t, mapProg(`
		r0 = *(u64 *)(r10 -520)
		exit
	`), "stack")
	mustReject(t, mapProg(`
		r1 = 0
		*(u8 *)(r10 +0) = r1
		exit
	`), "stack")
}

func TestRejectUninitStackRead(t *testing.T) {
	// Reading never-written stack memory through a helper is rejected.
	mustReject(t, mapProg(`
		r1 = map[0]
		r2 = r10
		r2 += -4
		call 1
		r0 = 0
		exit
	`, testMap16), "")
}

func TestPaperListing1CorrectRejection(t *testing.T) {
	// r2 in [0,30] after shift; 1-byte access at map_value+r2 with
	// value_size 16 can reach offset 30: correctly rejected.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r2 <<= 1
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "map value")
}

func TestMaskedMapAccessAccepted(t *testing.T) {
	// r2 in [0,15]: 1-byte access within 16-byte value is fine.
	mustAccept(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16))
}

func TestPaperFigure2FalseRejection(t *testing.T) {
	// The Figure 2 pattern: r2+r3 is exactly 15, but the baseline
	// abstraction over-approximates to [0,30] and rejects.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r3 = 0xf
		r3 -= r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "map value")
}

func TestNullCheckRequired(t *testing.T) {
	mustReject(t, mapProg(`
		r1 = map[0]
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		r0 = *(u8 *)(r0 +0)
		exit
	`, testMap16), "map_value_or_null")
}

func TestBranchRefinementUnsigned(t *testing.T) {
	// if r2 > 15 exits; fallthrough has r2 in [0,15].
	mustAccept(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		if r2 > 15 goto miss
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16))
}

func TestBranchRefinementSigned(t *testing.T) {
	// Signed bounds alone do not constrain unsigned: still rejected.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		if r2 s> 15 goto miss
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "")
}

func TestBranch32Refinement(t *testing.T) {
	// A 32-bit comparison constrains only the low word, but a following
	// 32-bit mov zero-extends, making the bound usable.
	mustAccept(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		if w2 > 12 goto miss
		w2 = w2
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16))
}

func TestLinkedScalars64BitMov(t *testing.T) {
	// 64-bit mov links r2 and r5: bounding r2 also bounds r5.
	mustAccept(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r5 = r2
		if r2 > 12 goto miss
		r1 += r5
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16))
}

func TestUnlinkedScalars32BitMov(t *testing.T) {
	// Paper Listing 9: 32-bit movs do not link registers; the bound on w1
	// does not transfer to w5 and the access is (falsely) rejected.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r6 = *(u64 *)(r1 +0)
		w2 = w6
		w5 = w6
		if w2 > 12 goto miss
		w5 = w5
		r1 += r5
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "map value")
}

func TestSpillFillPreservesBounds(t *testing.T) {
	// A full 8-byte spill/fill preserves the range.
	mustAccept(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		*(u64 *)(r10 -8) = r2
		r3 = *(u64 *)(r10 -8)
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16))
}

func TestSubRegisterSpillLosesBounds(t *testing.T) {
	// Paper §5 limitation analog: a 4-byte spill is not tracked, so the
	// filled value is unbounded and the access is rejected.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		*(u32 *)(r10 -8) = r2
		r3 = *(u32 *)(r10 -8)
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "map value")
}

func TestHelperSizeBounded(t *testing.T) {
	mustAccept(t, mapProg(`
		r1 = r10
		r1 += -16
		r2 = 16
		r3 = 0
		call 4
		r0 = 0
		exit
	`))
}

func TestHelperSizeTooLarge(t *testing.T) {
	mustReject(t, mapProg(`
		r1 = r10
		r1 += -16
		r2 = 17
		r3 = 0
		call 4
		r0 = 0
		exit
	`), "")
}

func TestHelperSizeZeroRejected(t *testing.T) {
	mustReject(t, mapProg(`
		r1 = r10
		r1 += -16
		r2 = 0
		r3 = 0
		call 4
		r0 = 0
		exit
	`), "zero-size")
}

func TestHelperVariableSizeBounded(t *testing.T) {
	mustAccept(t, mapProg(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		r6 += 1
		r1 = r10
		r1 += -16
		r2 = r6
		r3 = 0
		call 4
		r0 = 0
		exit
	`+lookupEpilogue, testMap16))
}

func TestCtxAccess(t *testing.T) {
	mustAccept(t, mapProg(`
		r0 = *(u32 *)(r1 +0)
		exit
	`))
	mustReject(t, mapProg(`
		r0 = *(u32 *)(r1 +200)
		exit
	`), "bpf_context")
	// Variable ctx offset: the uninstrumented rejection site.
	mustReject(t, mapProg(`
		r2 = *(u32 *)(r1 +0)
		r2 &= 3
		r1 += r2
		r0 = *(u32 *)(r1 +4)
		exit
	`), "variable ctx access")
}

func TestPointerArithmeticRestrictions(t *testing.T) {
	mustReject(t, mapProg(`
		r1 *= 2
		r0 = 0
		exit
	`), "prohibited")
	mustReject(t, mapProg(`
		r1 -= r10
		r0 = 0
		exit
	`), "")
	mustReject(t, mapProg(`
		w10 = 1
		r0 = 0
		exit
	`), "frame pointer")
}

func TestDivByZeroImmediate(t *testing.T) {
	mustReject(t, mapProg(`
		r0 = 10
		r0 /= 0
		exit
	`), "division by zero")
}

func TestUnknownHelperRejected(t *testing.T) {
	mustReject(t, mapProg(`
		call 9999
		exit
	`), "unknown helper")
}

func TestInsnLimit(t *testing.T) {
	// r0 differs on every iteration, defeating pruning, so the analysis
	// walks the loop until the instruction budget is exhausted.
	p := mapProg(`
		r6 = r1
		r0 = 0
	loop:
		r0 += 1
		r2 = *(u32 *)(r6 +0)
		if r2 != 0 goto loop
		exit
	`)
	err, _ := verifyStats(p, 1000)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("expected insn-limit rejection, got %v", err)
	}
}

func TestBoundedLoopAccepted(t *testing.T) {
	// A constant-bounded countdown loop terminates the analysis quickly.
	mustAccept(t, mapProg(`
		r0 = 8
	loop:
		r0 += -1
		if r0 != 0 goto loop
		exit
	`))
}

func TestPruningConvergence(t *testing.T) {
	// A diamond ladder would be exponential without pruning; with
	// pruning the state count stays linear.
	var sb strings.Builder
	sb.WriteString("r0 = 0\n")
	for i := 0; i < 24; i++ {
		sb.WriteString("r2 = *(u32 *)(r1 +0)\nif r2 == 0 goto +1\nr0 += 0\n")
	}
	sb.WriteString("exit\n")
	p := mapProg(sb.String())
	v := New(p, Config{})
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	if v.Stats().InsnProcessed > 5000 {
		t.Errorf("pruning ineffective: processed %d insns", v.Stats().InsnProcessed)
	}
	if v.Stats().StatesPruned == 0 {
		t.Errorf("expected pruned states")
	}
}

func TestPaperListing8UnreachablePath(t *testing.T) {
	// w1 = input>>31 (arithmetic) can be 0 or -1; & -134 gives 0 or -134.
	// In the w1 <= -1 branch, w1 == -134, so w1 != -136 always holds; the
	// baseline misses this and rejects along the unreachable path.
	mustReject(t, mapProg(lookupPrologue+`
		r1 = r0
		r6 = *(u32 *)(r1 +0)
		w1 = w6
		w1 s>>= 31
		w1 &= -134
		if w1 s> -1 goto safe
		if w1 != -136 goto safe
		r2 = 100
		r1 = r0
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	safe:
		r0 = 0
		exit
	`+lookupEpilogue, testMap16), "")
}

func TestStatsPopulated(t *testing.T) {
	p := mapProg(`
		r0 = 0
		if r1 != 0 goto +1
		r0 = 1
		exit
	`)
	v := New(p, Config{})
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.InsnProcessed == 0 || st.PathsExplored == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestAtomicAddVerified(t *testing.T) {
	// An atomic counter bump on a map value: classic per-CPU statistics.
	mustAccept(t, mapProg(lookupPrologue+`
		r2 = 1
		lock *(u64 *)(r0 +0) += r2
		r0 = 0
		exit
	`+lookupEpilogue, testMap16))
}

func TestAtomicAddChecksBounds(t *testing.T) {
	mustReject(t, mapProg(lookupPrologue+`
		r2 = 1
		lock *(u64 *)(r0 +9) += r2
		r0 = 0
		exit
	`+lookupEpilogue, testMap16), "map value")
}

func TestAtomicAddOfPointerRejected(t *testing.T) {
	mustReject(t, mapProg(`
		r1 = 0
		*(u64 *)(r10 -8) = r1
		lock *(u64 *)(r10 -8) += r10
		r0 = 0
		exit
	`), "pointer")
}

func TestAtomicAddInvalidatesSpill(t *testing.T) {
	// A spilled bound modified in place can no longer justify the access.
	mustReject(t, mapProg(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		*(u64 *)(r10 -8) = r6
		r2 = 1
		lock *(u64 *)(r10 -8) += r2
		r7 = *(u64 *)(r10 -8)
		r1 = r0
		r1 += r7
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16), "")
}

// TestPathView pins the Path view's three reads: Backward newest first,
// Tail oldest first and clamped to the path, Len over the whole chain.
func TestPathView(t *testing.T) {
	steps := []PathStep{{Idx: 0}, {Idx: 1, Taken: true}, {Idx: 5}, {Idx: 6}}
	p := NewPath(steps...)
	if n := p.Len(); n != 4 {
		t.Fatalf("Len() = %d, want 4", n)
	}
	back := slices.Collect(p.Backward())
	slices.Reverse(back)
	if !slices.Equal(back, steps) {
		t.Fatalf("Backward reversed = %v, want %v", back, steps)
	}
	for k, want := range map[int][]PathStep{0: {}, 1: steps[3:], 3: steps[1:], 4: steps, 9: steps} {
		if got := p.Tail(k); !slices.Equal(got, want) {
			t.Errorf("Tail(%d) = %v, want %v", k, got, want)
		}
	}
	if n := (Path{}).Len(); n != 0 {
		t.Errorf("zero Path has Len() %d", n)
	}
}

// TestPointerArithmeticMessages pins the exact rejection text of the
// pointer-arithmetic checks that name a register.
func TestPointerArithmeticMessages(t *testing.T) {
	cases := []struct {
		src, msg string
	}{
		{"r1 = r10\nr1 = -r1\nr0 = 0\nexit", "R1 pointer arithmetic prohibited"},
		{"r2 = r10\nr2 += r10\nr0 = 0\nexit", "R2 pointer += pointer prohibited"},
		{"r3 = r10\nr3 -= r1\nr0 = 0\nexit", "R3 pointer -= pointer prohibited"},
		{"r4 = r10\nr4 *= r1\nr0 = 0\nexit", "R4 pointer arithmetic with mul operator prohibited"},
	}
	for _, c := range cases {
		err, _ := verifyStats(mapProg(c.src), 0)
		if err == nil {
			t.Fatalf("%q: accepted, want %q", c.src, c.msg)
		}
		if ve := asVerifierError(t, err); ve.Msg != c.msg || ve.InsnIdx != 1 {
			t.Errorf("%q: insn %d %q, want insn 1 %q", c.src, ve.InsnIdx, ve.Msg, c.msg)
		}
	}
}
