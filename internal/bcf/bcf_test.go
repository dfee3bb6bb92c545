package bcf

import (
	"testing"

	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/verifier"
)

// mkPath builds a straight-line path over the given instruction indexes.
func mkPath(idxs ...int) []verifier.PathStep {
	out := make([]verifier.PathStep, len(idxs))
	for i, idx := range idxs {
		out[i] = verifier.PathStep{Idx: idx}
	}
	return out
}

func linearPath(n int) []verifier.PathStep {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return mkPath(idxs...)
}

// trackStart runs backwardAnalysis over a Path of the steps and returns
// the index of the first tracked step, checking it against the
// index-based reference scan.
func trackStart(t *testing.T, p *ebpf.Program, path []verifier.PathStep, target ebpf.Reg) int {
	t.Helper()
	start := len(path) - 1 - backwardAnalysis(p, verifier.NewPath(path...), target)
	if ref := refBackwardAnalysis(p, path, target); start != ref {
		t.Fatalf("backward analysis starts at %d, reference at %d", start, ref)
	}
	return start
}

func TestBackwardAnalysisListing4(t *testing.T) {
	// Mirrors the paper's Listing 4: the suffix must start at the mov
	// feeding the final dependency chain.
	p := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: ebpf.MustAssemble(`
		r4 = 4          ; 0: unrelated
		r5 = 5          ; 1: unrelated
		r2 = 10         ; 2: r2 defined (start of chain via r3 = r2)
		r3 = 10         ; 3: r3 defined (overwritten below)
		r5 += r4        ; 4: unrelated
		r1 = 7          ; 5: r1 defined
		r4 = 9          ; 6: unrelated
		r3 = r2         ; 7: r3 defined from r2
		r1 += r3        ; 8: r1 depends on r3
		r0 = *(u8 *)(r1 +0) ; 9: failing access
		exit
	`)}
	path := linearPath(10)
	start := trackStart(t, p, path, ebpf.R1)
	// Chain: r1 needs def (insn 5) and r3 (insn 7) which needs r2
	// (insn 2). Earliest definition: insn 2.
	if start != 2 {
		t.Fatalf("start = %d, want 2", start)
	}
}

func TestBackwardAnalysisCallBoundary(t *testing.T) {
	p := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: ebpf.MustAssemble(`
		r6 = 1          ; 0
		call 7          ; 1: defines r0-r5
		r1 = r0         ; 2
		r1 += r6        ; 3: depends on r6 (defined before the call)
		r0 = *(u8 *)(r1 +0) ; 4
		exit
	`)}
	start := trackStart(t, p, linearPath(5), ebpf.R1)
	if start != 0 {
		t.Fatalf("start = %d, want 0 (r6 defined at insn 0)", start)
	}
}

func TestBackwardAnalysisSpillChain(t *testing.T) {
	p := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: ebpf.MustAssemble(`
		r3 = 3                   ; 0
		r2 = 42                  ; 1: definition reached through the slot
		*(u64 *)(r10 -8) = r2    ; 2: spill
		r2 = 0                   ; 3: clobber the register
		r1 = *(u64 *)(r10 -8)    ; 4: fill
		r0 = *(u8 *)(r1 +0)      ; 5
		exit
	`)}
	start := trackStart(t, p, linearPath(6), ebpf.R1)
	if start != 1 {
		t.Fatalf("start = %d, want 1 (spilled value defined at insn 1)", start)
	}
}

func TestBackwardAnalysisImmediateDef(t *testing.T) {
	p := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: ebpf.MustAssemble(`
		r4 = 0              ; 0
		r1 = 5              ; 1
		r0 = *(u8 *)(r1 +0) ; 2
		exit
	`)}
	start := trackStart(t, p, linearPath(3), ebpf.R1)
	if start != 1 {
		t.Fatalf("start = %d, want 1", start)
	}
}

// track runs the tracker over a full linear path of the program.
func track(t *testing.T, src string, taken map[int]bool) *tracker {
	t.Helper()
	p := &ebpf.Program{Type: ebpf.ProgTracepoint, Insns: ebpf.MustAssemble(src)}
	n := 0
	for i, ins := range p.Insns {
		if !ins.IsPlaceholder() {
			n = i + 1
		}
	}
	path := make([]verifier.PathStep, 0, n)
	for i := 0; i < n; i++ {
		if p.Insns[i].IsPlaceholder() {
			continue
		}
		path = append(path, verifier.PathStep{Idx: i, Taken: taken[i]})
	}
	tk := newTracker(p)
	if err := tk.run(path); err != nil {
		t.Fatal(err)
	}
	return tk
}

func evalReg(tk *tracker, r ebpf.Reg, env func(uint32) uint64) uint64 {
	return tk.reg(r).e.Eval(env)
}

func TestTrackerArithmetic(t *testing.T) {
	tk := track(t, `
		r1 = 6
		r2 = 7
		r1 *= r2
		r1 += 8
		exit
	`, nil)
	if got := evalReg(tk, ebpf.R1, func(uint32) uint64 { return 0 }); got != 50 {
		t.Fatalf("r1 = %d, want 50", got)
	}
}

func TestTracker32BitOps(t *testing.T) {
	// w-ops must truncate and zero-extend exactly like the interpreter.
	tk := track(t, `
		r2 = r1
		w2 += 1
		exit
	`, nil)
	// r1 is a fresh 64-bit var (id assigned on first read).
	got := evalReg(tk, ebpf.R2, func(uint32) uint64 { return ^uint64(0) })
	if got != 0 {
		t.Fatalf("w-add wrap: got %#x want 0", got)
	}
}

func TestTrackerFigure2Expression(t *testing.T) {
	tk := track(t, `
		r2 &= 0xf
		r3 = 0xf
		r3 -= r2
		r2 += r3
		exit
	`, nil)
	for _, v := range []uint64{0, 5, 0xff, ^uint64(0)} {
		got := evalReg(tk, ebpf.R2, func(uint32) uint64 { return v })
		if got != 0xf {
			t.Fatalf("figure-2 sum: got %d for input %#x, want 15", got, v)
		}
	}
}

func TestTrackerSpillFill(t *testing.T) {
	tk := track(t, `
		r2 &= 0x7
		*(u64 *)(r10 -16) = r2
		r3 = *(u64 *)(r10 -16)
		exit
	`, nil)
	got := evalReg(tk, ebpf.R3, func(uint32) uint64 { return 0xabc })
	if got != 0xabc&0x7 {
		t.Fatalf("spill/fill lost the expression: got %#x", got)
	}
}

func TestTrackerSubRegisterSpillIsFresh(t *testing.T) {
	tk := track(t, `
		r2 &= 0x7
		*(u32 *)(r10 -16) = r2
		r3 = *(u32 *)(r10 -16)
		exit
	`, nil)
	v := tk.reg(ebpf.R3)
	// The fill must be a fresh (width-32, zero-extended) variable, not
	// the masked expression.
	if v.e.Op != expr.OpZExt || v.e.Args[0].Op != expr.OpVar || v.e.Args[0].Width != 32 {
		t.Fatalf("fill = %s, want a zero-extended width-32 variable", v.e)
	}
}

func TestTrackerCallClobbers(t *testing.T) {
	tk := track(t, `
		r6 = 5
		r1 = 5
		*(u64 *)(r10 -8) = r6
		call 7
		r2 = *(u64 *)(r10 -8)
		exit
	`, nil)
	// After the call, both r1 and the stack slot are untracked.
	if r1 := tk.reg(ebpf.R1).e; r1.Op != expr.OpVar {
		t.Fatalf("r1 = %s, should be fresh after call", r1)
	}
	if r2 := tk.reg(ebpf.R2).e; r2.Op != expr.OpVar {
		t.Fatalf("r2 = %s: the stack slot should be dropped across the call", r2)
	}
}

func TestTrackerPathConstraints(t *testing.T) {
	tk := track(t, `
		r2 &= 0xff
		if r2 > 15 goto +1
		r3 = 0
		exit
	`, map[int]bool{1: false}) // fallthrough: r2 <= 15
	if len(tk.constr) != 1 {
		t.Fatalf("expected 1 constraint, got %d", len(tk.constr))
	}
	c := tk.constr[0]
	// Fallthrough of JGT means NOT(r2 > 15).
	if c.Op != expr.OpBoolNot {
		t.Fatalf("constraint should be negated: %s", c)
	}
	ok := c.Eval(func(uint32) uint64 { return 12 })
	if ok != 1 {
		t.Fatalf("constraint must hold for r2=12")
	}
	bad := c.Eval(func(uint32) uint64 { return 200 })
	if bad != 0 {
		t.Fatalf("constraint must fail for r2=200")
	}
}

func TestTrackerPointerOffset(t *testing.T) {
	tk := track(t, `
		r1 = map[0]
		r2 &= 0xf
		r1 = 1
		call 1
		r1 = r0
		r1 += 4
		exit
	`, nil)
	v := tk.reg(ebpf.R1)
	if v.kind != kindPtr {
		t.Fatalf("r1 should be a tracked pointer, kind=%d", v.kind)
	}
	if got := v.e.Eval(func(uint32) uint64 { return 0 }); got != 4 {
		t.Fatalf("pointer offset = %d, want 4", got)
	}
}

func TestSessionAbort(t *testing.T) {
	p := &ebpf.Program{
		Type: ebpf.ProgTracepoint,
		Maps: []*ebpf.MapSpec{{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 1}},
		Insns: ebpf.MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r3 = 0xf
			r3 -= r2
			r1 += r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
	var condition []byte
	_, err := load(p, verifier.Config{}, NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) {
		condition = cond
		return nil, errAbandoned
	})))
	if len(condition) == 0 {
		t.Fatal("empty condition buffer")
	}
	// User space walked away: the load is finished and rejected.
	if err == nil || bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("abandoned session should be rejected as protocol: %v", err)
	}
}

func TestRefinerRejectsForgedProof(t *testing.T) {
	// A service that returns garbage must never lead to acceptance.
	p := &ebpf.Program{
		Type: ebpf.ProgTracepoint,
		Maps: []*ebpf.MapSpec{{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 1}},
		Insns: ebpf.MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r3 = 0xf
			r3 -= r2
			r1 += r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
	_, err := load(p, verifier.Config{}, NewRefiner(ProveFunc(func([]byte) ([]byte, error) {
		return []byte("not a proof"), nil
	})))
	if err == nil {
		t.Fatal("forged proof led to acceptance")
	}
}
