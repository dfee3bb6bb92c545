package verifier

import (
	"strings"
	"testing"

	"bcf/internal/ebpf"
)

// loopProg counts with r6 while polling an unknown context value; the
// per-iteration counter change defeats pruning without an invariant.
const loopProgSrc = `
	r7 = r1
	r6 = 0
loop:
	r6 += 1
	r2 = *(u32 *)(r7 +0)
	if r2 != 0 goto loop
	r0 = 0
	exit
`

func TestLoopWithoutInvariantHitsBudget(t *testing.T) {
	p := mapProg(loopProgSrc)
	v := New(p, Config{InsnLimit: 2000})
	err := v.Verify()
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
}

func TestLoopInvariantSinglePass(t *testing.T) {
	p := mapProg(loopProgSrc)
	// The loop head is the insn at the "loop" label: index 2.
	v := New(p, Config{InsnLimit: 2000, LoopInvariants: []LoopInvariant{
		{Insn: 2, Regs: []RegRange{{Reg: ebpf.R6, UMin: 0, UMax: ^uint64(0)}}},
	}})
	if err := v.Verify(); err != nil {
		t.Fatalf("invariant should make the loop converge: %v", err)
	}
	if v.Stats().InsnProcessed > 100 {
		t.Errorf("loop not analyzed in a single pass: %d insns", v.Stats().InsnProcessed)
	}
}

func TestLoopInvariantBoundedCounterUsable(t *testing.T) {
	// The declared fixpoint bounds the counter, and the bound is tight
	// enough to index a 16-byte map value inside the loop.
	src := `
		r7 = r1
		r1 = map[0]
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		if r0 == 0 goto out
		r6 = 0
	loop:
		r6 += 1
		r6 &= 0xf
		r1 = r0
		r1 += r6
		r3 = *(u8 *)(r1 +0)
		r2 = *(u32 *)(r7 +0)
		if r2 != 0 goto loop
	out:
		r0 = 0
		exit
	`
	p := mapProg(src, testMap16)
	// Loop head: the "r6 += 1" insn after the prologue (the lddw takes
	// two slots) and the counter init: index 9.
	head := 9
	if p.Insns[head].AluOp() != ebpf.AluADD {
		t.Fatalf("loop head index drifted: %v", p.Insns[head])
	}
	v := New(p, Config{InsnLimit: 2000, LoopInvariants: []LoopInvariant{
		{Insn: head, Regs: []RegRange{{Reg: ebpf.R6, UMin: 0, UMax: 0xf}}},
	}})
	if err := v.Verify(); err != nil {
		t.Fatalf("bounded invariant rejected: %v", err)
	}
}

func TestLoopInvariantViolationRejected(t *testing.T) {
	// Declaring a fixpoint the body escapes must be rejected (the
	// verifier validates, never trusts).
	p := mapProg(loopProgSrc)
	v := New(p, Config{InsnLimit: 2000, LoopInvariants: []LoopInvariant{
		{Insn: 2, Regs: []RegRange{{Reg: ebpf.R6, UMin: 0, UMax: 5}}},
	}})
	err := v.Verify()
	if err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("expected invariant violation, got %v", err)
	}
}

func TestLoopInvariantOnPointerRejected(t *testing.T) {
	p := mapProg(loopProgSrc)
	v := New(p, Config{InsnLimit: 2000, LoopInvariants: []LoopInvariant{
		{Insn: 2, Regs: []RegRange{{Reg: ebpf.R7, UMin: 0, UMax: 5}}},
	}})
	err := v.Verify()
	if err == nil || !strings.Contains(err.Error(), "not a scalar") {
		t.Fatalf("expected scalar-only error, got %v", err)
	}
}
