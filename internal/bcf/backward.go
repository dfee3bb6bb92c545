// Package bcf implements proof-guided abstraction refinement for the
// eBPF verifier (the paper's core contribution).
//
// When the verifier cannot prove a safety check it does not reject;
// instead it hands this package a refinement request. A backward analysis
// locates the suffix of the analysis path that defines the target
// register (§4 Backward Analysis); symbolic tracking re-executes that
// suffix to obtain an exact expression for the target plus the suffix's
// path constraints (§4 Symbolic Tracking); the refined abstraction and
// its soundness condition are emitted in the BCF wire format and
// delegated to user space (§4 Refinement Condition / Workload
// Delegation); and the returned proof is validated by the in-kernel
// checker before the refinement is adopted (§4 Proof Check).
package bcf

import (
	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// backwardAnalysis walks the analysis path newest first (Path.Backward),
// from the failing instruction back to the earliest definition the
// target register transitively depends on, and returns how many steps
// before the failing instruction symbolic tracking must start (§4,
// Listing 4). It stops there, so its cost follows the tracked suffix, not
// the path length; when the dependencies reach past the path start it
// returns the whole path's length minus one. The dependency set holds
// registers and — for register-sized fills through the frame pointer —
// stack slots. Ranging over the concrete Path, rather than any sequence,
// lets the compiler inline the iterator, so the walk allocates nothing.
func backwardAnalysis(prog *ebpf.Program, path verifier.Path, target ebpf.Reg) int {
	regs := uint16(1) << target
	slots := map[int16]bool{}
	need := func() bool { return regs != 0 || len(slots) > 0 }
	addReg := func(r ebpf.Reg) { regs |= 1 << r }
	delReg := func(r ebpf.Reg) { regs &^= 1 << r }
	hasReg := func(r ebpf.Reg) bool { return regs&(1<<r) != 0 }

	// The newest step is the failing instruction itself; dependencies are
	// the values flowing into it, so the scan starts just before it.
	back := -1
	for step := range path.Backward() {
		if back++; back == 0 {
			continue
		}
		ins := prog.Insns[step.Idx]
		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if !hasReg(ins.Dst) {
				continue
			}
			switch ins.AluOp() {
			case ebpf.AluMOV:
				// A mov defines dst; the value now flows from the source.
				delReg(ins.Dst)
				if ins.UsesSrcReg() {
					addReg(ins.Src)
				}
			case ebpf.AluNEG, ebpf.AluEND:
				// Unary in-place update: dst still needs its definition.
			default:
				// dst op= src keeps dst live and adds the source.
				if ins.UsesSrcReg() {
					addReg(ins.Src)
				}
			}

		case ebpf.ClassLD:
			if ins.IsLoadImm64() && hasReg(ins.Dst) {
				delReg(ins.Dst) // constant (or map pointer) definition
			}

		case ebpf.ClassLDX:
			if !hasReg(ins.Dst) {
				continue
			}
			delReg(ins.Dst)
			// A register-sized fill through the frame pointer continues
			// the chain at the spilling store; anything else becomes a
			// fresh symbolic variable at this point.
			if ins.Src == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 {
				slots[ins.Off] = true
			}

		case ebpf.ClassSTX, ebpf.ClassST:
			if ins.Dst == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 && slots[ins.Off] {
				delete(slots, ins.Off)
				if ins.Class() == ebpf.ClassSTX {
					addReg(ins.Src)
				}
			}

		case ebpf.ClassJMP, ebpf.ClassJMP32:
			if ins.JmpOp() == ebpf.JmpCALL {
				// A call defines R0 and clobbers R1-R5.
				for r := ebpf.R0; r <= ebpf.R5; r++ {
					delReg(r)
				}
			}
		}
		if !need() {
			break
		}
	}
	return max(back, 0)
}
