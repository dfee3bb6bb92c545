package fuzzcamp

import (
	"math"
	"math/rand"

	"bcf/internal/difftest"
	"bcf/internal/ebpf"
)

// maxProgSlots bounds mutated program growth so exhaustive path
// enumeration in the domain oracle stays affordable.
const maxProgSlots = 192

// condJmpOps are the conditional jump operations a branch flip may pick
// from (JA/CALL/EXIT are not conditions).
var condJmpOps = []uint8{
	ebpf.JmpJEQ, ebpf.JmpJNE, ebpf.JmpJGT, ebpf.JmpJGE, ebpf.JmpJLT,
	ebpf.JmpJLE, ebpf.JmpJSGT, ebpf.JmpJSGE, ebpf.JmpJSLT, ebpf.JmpJSLE,
	ebpf.JmpJSET,
}

// interestingImms are boundary constants worth steering operands toward:
// domain-edge values for the tnum and the four interval domains.
var interestingImms = []int64{
	0, 1, -1, 7, 8, 31, 32, 63, 64, 127, 255,
	math.MaxInt32, math.MinInt32, -4095, 4096,
}

// Mutator derives new campaign inputs from corpus programs. All
// randomness comes from the injected rng, so a mutation is a pure
// function of (rng seed, input, donors) — the property the campaign's
// worker-count determinism and failure dedup keys rest on.
type Mutator struct {
	rng *rand.Rand
}

// NewMutator returns a mutator drawing from rng.
func NewMutator(rng *rand.Rand) *Mutator { return &Mutator{rng: rng} }

// Mutate returns a perturbed copy of p, or nil when no mutation
// applied. Donors are splice sources (p itself is always a donor). The
// result, when non-nil, always passes Program.Validate: each operator
// either preserves well-formedness by construction (jump retargeting
// is difftest.Splice, shared with the minimizer) or its candidate is
// discarded.
func (m *Mutator) Mutate(p *ebpf.Program, donors []*ebpf.Program) *ebpf.Program {
	cur := difftest.CloneProg(p)
	mutated := false
	n := 1 + m.rng.Intn(3)
	for i := 0; i < n; i++ {
		var cand *ebpf.Program
		switch m.rng.Intn(5) {
		case 0:
			cand = m.nudgeConst(cur)
		case 1:
			cand = m.nudgeOffset(cur)
		case 2:
			cand = m.flipBranch(cur)
		case 3:
			cand = m.splice(cur, donors)
		case 4:
			cand = m.dupBlock(cur)
		}
		if cand != nil && cand.Validate() == nil {
			cur = cand
			mutated = true
		}
	}
	if !mutated {
		return nil
	}
	return cur
}

// nudgeConst perturbs one immediate: ALU operands, store constants,
// lddw constants and branch comparison values. Shift amounts stay in
// range for their width.
func (m *Mutator) nudgeConst(p *ebpf.Program) *ebpf.Program {
	var idxs []int
	for i, ins := range p.Insns {
		if ins.IsPlaceholder() || ins.IsCall() || ins.IsExit() || ins.IsLoadFromMap() {
			continue
		}
		switch {
		case ins.IsALU() && !ins.UsesSrcReg() && ins.AluOp() != ebpf.AluNEG && ins.AluOp() != ebpf.AluEND:
			idxs = append(idxs, i)
		case ins.Class() == ebpf.ClassST:
			idxs = append(idxs, i)
		case ins.IsLoadImm64():
			idxs = append(idxs, i)
		case ins.IsJump() && !ins.UsesSrcReg() && ins.JmpOp() != ebpf.JmpJA:
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	i := idxs[m.rng.Intn(len(idxs))]
	return difftest.WithInsn(p, i, func(ins *ebpf.Instruction) {
		if ins.IsALU() {
			switch ins.AluOp() {
			case ebpf.AluLSH, ebpf.AluRSH, ebpf.AluARSH:
				width := 64
				if ins.Class() == ebpf.ClassALU {
					width = 32
				}
				ins.Imm = int64(m.rng.Intn(width))
				return
			}
		}
		switch m.rng.Intn(3) {
		case 0:
			ins.Imm = interestingImms[m.rng.Intn(len(interestingImms))]
		case 1:
			ins.Imm += int64(m.rng.Intn(17) - 8)
		default:
			ins.Imm = -ins.Imm
		}
		if !ins.IsLoadImm64() {
			ins.Imm = int64(int32(ins.Imm)) // single-slot imms are 32-bit
		}
	})
}

// nudgeOffset perturbs one memory access displacement by a small step.
func (m *Mutator) nudgeOffset(p *ebpf.Program) *ebpf.Program {
	var idxs []int
	for i, ins := range p.Insns {
		switch ins.Class() {
		case ebpf.ClassLDX, ebpf.ClassST, ebpf.ClassSTX:
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	i := idxs[m.rng.Intn(len(idxs))]
	steps := []int16{-8, -4, -1, 1, 4, 8}
	return difftest.WithInsn(p, i, func(ins *ebpf.Instruction) {
		ins.Off += steps[m.rng.Intn(len(steps))]
	})
}

// flipBranch replaces one conditional jump's comparison with another,
// keeping class, operands and target: the decision flips, the CFG shape
// does not.
func (m *Mutator) flipBranch(p *ebpf.Program) *ebpf.Program {
	var idxs []int
	for i, ins := range p.Insns {
		if ins.IsJump() && !ins.IsCall() && !ins.IsExit() && ins.JmpOp() != ebpf.JmpJA {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	i := idxs[m.rng.Intn(len(idxs))]
	cur := p.Insns[i].JmpOp()
	op := condJmpOps[m.rng.Intn(len(condJmpOps))]
	if op == cur {
		op = condJmpOps[(indexOfOp(cur)+1)%len(condJmpOps)]
	}
	return difftest.WithInsn(p, i, func(ins *ebpf.Instruction) {
		ins.Op = ins.Op&^uint8(0xf0) | op
	})
}

func indexOfOp(op uint8) int {
	for i, o := range condJmpOps {
		if o == op {
			return i
		}
	}
	return 0
}

// splice copies one straight-line instruction from a donor program and
// inserts it at a random slot boundary, retargeting jumps across the
// insertion point.
func (m *Mutator) splice(p *ebpf.Program, donors []*ebpf.Program) *ebpf.Program {
	src := p
	if len(donors) > 0 && m.rng.Intn(2) == 0 {
		src = donors[m.rng.Intn(len(donors))]
	}
	var cands []ebpf.Instruction
	for _, ins := range src.Insns {
		if ins.IsPlaceholder() || ins.IsJump() { // jumps carry cross-program targets
			continue
		}
		if ins.IsLoadFromMap() && int(uint32(ins.Imm)) >= len(p.Maps) {
			continue // the donor's map index does not exist here
		}
		cands = append(cands, ins)
	}
	if len(cands) == 0 {
		return nil
	}
	ins := cands[m.rng.Intn(len(cands))]
	block := []ebpf.Instruction{ins}
	if ins.IsLoadImm64() {
		block = append(block, ebpf.Instruction{}) // placeholder slot
	}
	at := m.insertionPoint(p)
	if at < 0 {
		return nil
	}
	return insertInsns(p, at, block)
}

// dupBlock duplicates a short straight-line run right after itself.
func (m *Mutator) dupBlock(p *ebpf.Program) *ebpf.Program {
	type run struct{ start, end int }
	var runs []run
	for s := 0; s < len(p.Insns); s++ {
		ins := p.Insns[s]
		if ins.IsPlaceholder() || ins.IsJump() {
			continue
		}
		e := s
		for e < len(p.Insns) && e-s < 4 {
			cur := p.Insns[e]
			if cur.IsJump() {
				break
			}
			if cur.IsLoadImm64() {
				e += 2
			} else if cur.IsPlaceholder() {
				break
			} else {
				e++
			}
		}
		if e > s && e <= len(p.Insns) {
			runs = append(runs, run{s, e})
		}
	}
	if len(runs) == 0 {
		return nil
	}
	r := runs[m.rng.Intn(len(runs))]
	block := append([]ebpf.Instruction(nil), p.Insns[r.start:r.end]...)
	return insertInsns(p, r.end, block)
}

// insertionPoint picks a random slot boundary (never between an lddw
// head and its placeholder), or -1 when none exists.
func (m *Mutator) insertionPoint(p *ebpf.Program) int {
	var pts []int
	for i := 0; i <= len(p.Insns); i++ {
		if i > 0 && p.Insns[i-1].IsLoadImm64() {
			continue
		}
		pts = append(pts, i)
	}
	if len(pts) == 0 {
		return -1
	}
	return pts[m.rng.Intn(len(pts))]
}

// insertInsns returns a copy of p with block inserted before index at,
// every jump retargeted across the gap (difftest.Splice), or nil when
// the program would outgrow maxProgSlots. Jumps whose target was exactly
// `at` land after the inserted block, so existing control flow is
// unchanged.
func insertInsns(p *ebpf.Program, at int, block []ebpf.Instruction) *ebpf.Program {
	if len(p.Insns)+len(block) > maxProgSlots {
		return nil
	}
	return difftest.Splice(p, at, 0, block)
}
