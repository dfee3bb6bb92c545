package difftest

import (
	"math"

	"bcf/internal/ebpf"
)

// Minimize shrinks a failing program while pred keeps returning true
// (pred must be true for prog itself). It alternates two passes until a
// fixpoint or the call budget runs out: instruction deletion (with jump
// retargeting across the gap, ld_imm64 pairs removed whole) and operand
// simplification (immediates and offsets driven to zero). Every candidate
// must still pass Program.Validate before pred is consulted.
func Minimize(prog *ebpf.Program, pred func(*ebpf.Program) bool, budget int) *ebpf.Program {
	cur := CloneProg(prog)
	calls := 0
	try := func(cand *ebpf.Program) bool {
		if cand == nil || calls >= budget {
			return false
		}
		if cand.Validate() != nil {
			return false
		}
		calls++
		if pred(cand) {
			cur = cand
			return true
		}
		return false
	}
	for changed := true; changed && calls < budget; {
		changed = false
		// Deletion pass, rescanning from the front after every success so
		// indices stay meaningful.
		for i := 0; i < len(cur.Insns); i++ {
			if cur.Insns[i].IsPlaceholder() {
				continue // removed together with its ld_imm64 head
			}
			if try(Splice(cur, i, cur.Insns[i].Slots(), nil)) {
				changed = true
				i = -1
			}
		}
		// Simplification pass.
		for i := 0; i < len(cur.Insns); i++ {
			ins := cur.Insns[i]
			if ins.IsPlaceholder() {
				continue
			}
			if ins.Imm != 0 && !ins.IsCall() && !ins.IsLoadFromMap() {
				if try(WithInsn(cur, i, func(s *ebpf.Instruction) { s.Imm = 0 })) {
					changed = true
					continue
				}
				if ins.Imm != 1 && try(WithInsn(cur, i, func(s *ebpf.Instruction) { s.Imm = 1 })) {
					changed = true
					continue
				}
			}
			cls := ins.Class()
			memCls := cls == ebpf.ClassLDX || cls == ebpf.ClassST || cls == ebpf.ClassSTX
			if memCls && ins.Off != 0 {
				if try(WithInsn(cur, i, func(s *ebpf.Instruction) { s.Off = 0 })) {
					changed = true
				}
			}
		}
	}
	return cur
}

// CloneProg copies the program with a private instruction slice (maps and
// metadata are shared; the minimizer and the fuzz mutator never edit
// them).
func CloneProg(p *ebpf.Program) *ebpf.Program {
	q := *p
	q.Insns = append([]ebpf.Instruction(nil), p.Insns...)
	return &q
}

// WithInsn returns a copy of p with insns[i] edited.
func WithInsn(p *ebpf.Program, i int, edit func(*ebpf.Instruction)) *ebpf.Program {
	q := CloneProg(p)
	edit(&q.Insns[i])
	return q
}

// Splice returns a copy of p with the n slots at `at` replaced by block
// and every jump outside them retargeted across the edit. A jump whose
// target was in the replaced range, or just past it, lands just after
// block: a deleted instruction's jumps go to its successor, and an
// insertion leaves existing control flow as it was (forward jumps stay
// forward). The block's own offsets are kept. Returns nil when the range
// leaves the program or a retargeted offset leaves int16 range.
func Splice(p *ebpf.Program, at, n int, block []ebpf.Instruction) *ebpf.Program {
	if at < 0 || n < 0 || at+n > len(p.Insns) {
		return nil
	}
	w := len(block)
	newIdx := func(i int) int {
		switch {
		case i < at:
			return i
		case i < at+n:
			return at + w
		default:
			return i - n + w
		}
	}
	out := make([]ebpf.Instruction, 0, len(p.Insns)-n+w)
	out = append(out, p.Insns[:at]...)
	out = append(out, block...)
	out = append(out, p.Insns[at+n:]...)
	for i, ins := range p.Insns {
		if (i >= at && i < at+n) || !ins.IsJump() || ins.IsCall() || ins.IsExit() {
			continue
		}
		t := i + 1 + int(ins.Off)
		if t < 0 || t > len(p.Insns) {
			return nil
		}
		no := newIdx(t) - (newIdx(i) + 1)
		if no < math.MinInt16 || no > math.MaxInt16 {
			return nil
		}
		out[newIdx(i)].Off = int16(no)
	}
	q := *p
	q.Insns = out
	return &q
}
