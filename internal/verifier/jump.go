package verifier

import (
	"fmt"

	"bcf/internal/ebpf"
)

// checkCondJmp analyzes a conditional jump: it resolves the branch when
// the abstraction allows, otherwise forks and takes the fall-through. It
// returns the next pc and records the direction the walk takes in the
// jump's node (a fresh node reads not-taken).
func (v *Verifier) checkCondJmp(st *VState, pc int, ins *ebpf.Instruction, node int32) (int, error) {
	is32 := ins.Class() == ebpf.ClassJMP32
	op := ins.JmpOp()
	dst := &st.Regs[ins.Dst]
	if dst.Type == NotInit {
		return 0, &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Dst)}
	}
	var srcImm RegState
	srcImm.setConst(uint64(ins.Imm))
	src := &srcImm
	if ins.UsesSrcReg() {
		src = &st.Regs[ins.Src]
		if src.Type == NotInit {
			return 0, &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
		}
	}
	nullCmp := !ins.UsesSrcReg() && ins.Imm == 0 && (op == ebpf.JmpJEQ || op == ebpf.JmpJNE)
	outcome := branchUnknown
	switch {
	case nullCmp && !is32 && dst.Type == PtrToMapValueOrNull:
		// The null check of a map_value_or_null forks.
	case nullCmp && dst.Type.IsPtr() && dst.Type != PtrToMapValueOrNull:
		// Any other pointer is non-null.
		outcome = branchNever
		if op == ebpf.JmpJNE {
			outcome = branchAlways
		}
	case dst.Type.IsPtr() || src.Type.IsPtr():
		// Permitted between pointers; scalar/pointer mixes are rejected
		// as the kernel does (pointer leaks aside, they are meaningless).
		if !dst.Type.IsPtr() || !src.Type.IsPtr() {
			return 0, &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d comparison of pointer and scalar prohibited", ins.Dst)}
		}
	default:
		outcome = isBranchTaken(dst, src, op, is32)
	}
	switch outcome {
	case branchAlways:
		v.nodes.at(node).taken = true
		return pc + 1 + int(ins.Off), nil
	case branchNever:
		return pc + 1, nil
	}
	v.fork(node, pc)
	return v.takeBranch(pc, false), nil
}

// takeBranch refines the live state before the fork at pc with one
// outcome of the jump and returns the pc it leads to: the fall-through
// at the fork, the taken side when its branch is popped.
func (v *Verifier) takeBranch(pc int, taken bool) int {
	ins := &v.prog.Insns[pc]
	op := ins.JmpOp()
	switch dst := &v.st.Regs[ins.Dst]; {
	case !ins.UsesSrcReg() && dst.Type == PtrToMapValueOrNull:
		// The taken edge means dst == 0 for JEQ, dst != 0 for JNE.
		v.markPtrOrNull(dst.ID, taken == (op == ebpf.JmpJEQ))
	case dst.Type.IsPtr():
		if ins.Class() == ebpf.ClassJMP {
			v.learnPktRange(dst, &v.st.Regs[ins.Src], op, taken)
		}
	default:
		var imm RegState
		imm.setConst(uint64(ins.Imm))
		src := &imm
		if ins.UsesSrcReg() {
			src = v.reg(ins.Src)
		}
		dst = v.reg(ins.Dst)
		regSetMinMax(dst, src, op, taken, ins.Class() == ebpf.ClassJMP32)
		v.syncLinked(dst.ID, dst)
		if src != &imm {
			v.syncLinked(src.ID, src)
		}
	}
	if taken {
		return pc + 1 + int(ins.Off)
	}
	return pc + 1
}

// learnPktRange is the analog of the kernel's find_good_pkt_pointers: a
// 64-bit comparison between a packet pointer pkt+N and pkt_end proves, on
// the edge where pkt+N <=/< pkt_end holds (the live state's when taken
// says so), that at least N bytes past ctx->data are readable. N is
// bounded below by the pointer's fixed offset plus the unsigned minimum
// of its variable part, and learning is skipped past maxPacketOff — the
// kernel's overflow guard.
func (v *Verifier) learnPktRange(dst, src *RegState, op uint8, taken bool) {
	pkt, end := dst, src
	swapped := false
	if dst.Type == PtrToPacketEnd && src.Type == PtrToPacket {
		pkt, end, swapped = src, dst, true
	}
	if pkt.Type != PtrToPacket || end.Type != PtrToPacketEnd {
		return
	}
	if pkt.Off < 0 || pkt.UMin > maxPacketOff {
		return
	}
	n := int64(pkt.Off) + int64(pkt.UMin)
	if n <= 0 || n > maxPacketOff {
		return
	}
	// Select the edge on which pkt+N <= pkt_end is proven. With operands
	// in program order (pkt OP end): JGT/JGE fail on it (fall-through),
	// JLT/JLE succeed on it (taken). With the operands swapped
	// (end OP pkt) the edges mirror. The strict comparisons prove the
	// stronger pkt+N < pkt_end; adopting range N for both is the
	// conservative sound choice.
	var good bool
	switch op {
	case ebpf.JmpJGT, ebpf.JmpJGE:
		good = taken == swapped
	case ebpf.JmpJLT, ebpf.JmpJLE:
		good = taken != swapped
	default:
		return
	}
	if good && uint32(n) > v.st.PktRange {
		v.save(locFrame)
		v.st.PktRange = uint32(n)
	}
}

// markPtrOrNull resolves every register and spill slot of the live state
// carrying the given or-null identity to either a known-zero scalar or a
// real map value pointer (mark_ptr_or_null_regs).
func (v *Verifier) markPtrOrNull(id uint32, isNull bool) {
	v.eachReg(func(r *RegState) bool { return r.Type == PtrToMapValueOrNull && r.ID == id }, func(r *RegState) {
		if isNull {
			r.setConst(0)
		} else {
			r.Type, r.ID = PtrToMapValue, 0
		}
	})
}

// syncLinked propagates refined bounds to every scalar of the live state
// sharing the identity (find_equal_scalars / sync_linked_regs). Only
// 64-bit copies create identities, so the full state transfers.
func (v *Verifier) syncLinked(id uint32, src *RegState) {
	if id != 0 && src.Type == Scalar {
		v.eachReg(func(r *RegState) bool { return r != src && r.Type == Scalar && r.ID == id },
			func(r *RegState) { *r = *src })
	}
}

// eachReg applies f to the live registers and spills match selects.
func (v *Verifier) eachReg(match func(*RegState) bool, f func(*RegState)) {
	for i := range v.st.Regs {
		if match(&v.st.Regs[i]) {
			f(v.reg(ebpf.Reg(i)))
		}
	}
	for j := range v.st.Stack {
		if s := &v.st.Stack[j]; s.Kind == SlotSpill && match(&s.Spill) {
			v.save(locSlot + j)
			f(&s.Spill)
		}
	}
}
