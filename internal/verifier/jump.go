package verifier

import (
	"fmt"

	"bcf/internal/ebpf"
)

// checkCondJmp analyzes a conditional jump: it statically resolves the
// branch when the abstraction allows, otherwise forks the state, refines
// both sides with the branch condition, and queues the taken side, with
// a cloned state and its own node, through v.fork. It returns the next
// pc for the current walk and records the direction the walk takes in
// the jump's node (a fresh node reads not-taken).
func (v *Verifier) checkCondJmp(st *VState, pc int, ins *ebpf.Instruction, node int32, obsTok any) (int, error) {
	is32 := ins.Class() == ebpf.ClassJMP32
	op := ins.JmpOp()
	dst := &st.Regs[ins.Dst]
	if dst.Type == NotInit {
		return 0, &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Dst)}
	}
	var srcReg *RegState
	var srcImm RegState
	srcImm.setConst(uint64(ins.Imm))
	if ins.UsesSrcReg() {
		srcReg = &st.Regs[ins.Src]
		if srcReg.Type == NotInit {
			return 0, &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
		}
	}
	target := pc + 1 + int(ins.Off)

	// Null-pointer check pattern: `if rX ==/!= 0` on map_value_or_null.
	if !is32 && srcReg == nil && ins.Imm == 0 &&
		(op == ebpf.JmpJEQ || op == ebpf.JmpJNE) &&
		dst.Type == PtrToMapValueOrNull {
		other := st.clone()
		// Taken edge condition: dst == 0 for JEQ, dst != 0 for JNE.
		takenNull := op == ebpf.JmpJEQ
		markPtrOrNull(other, dst.ID, takenNull)
		markPtrOrNull(st, dst.ID, !takenNull)
		v.fork(node, other, target, obsTok)
		return pc + 1, nil
	}

	// Comparisons against a definitely-non-null pointer.
	if dst.Type.IsPtr() && dst.Type != PtrToMapValueOrNull && srcReg == nil && ins.Imm == 0 &&
		(op == ebpf.JmpJEQ || op == ebpf.JmpJNE) {
		if op == ebpf.JmpJNE { // always taken
			v.nodes.at(node).taken = true
			return target, nil
		}
		// JEQ 0 never taken.
		return pc + 1, nil
	}

	// Pointer comparisons otherwise teach us nothing but are permitted
	// between pointers; scalar/pointer mixes are rejected as the kernel
	// does (pointer leak concerns aside, they are meaningless).
	src := &srcImm
	if srcReg != nil {
		src = srcReg
	}
	if dst.Type.IsPtr() || src.Type.IsPtr() {
		if dst.Type.IsPtr() && srcReg != nil && srcReg.Type.IsPtr() {
			other := st.clone()
			if !is32 {
				learnPktRange(st, other, dst, srcReg, op)
			}
			v.fork(node, other, target, obsTok)
			return pc + 1, nil
		}
		return 0, &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: fmt.Sprintf("R%d comparison of pointer and scalar prohibited", ins.Dst)}
	}

	// Scalar comparison: try to resolve statically.
	switch isBranchTaken(dst, src, op, is32) {
	case branchAlways:
		v.nodes.at(node).taken = true
		return target, nil
	case branchNever:
		return pc + 1, nil
	}

	// Fork. Refine the taken copy under the condition and the fallthrough
	// under its negation, then propagate to linked scalars.
	other := st.clone()
	oDst := &other.Regs[ins.Dst]
	oSrc := &srcImm
	fSrc := &srcImm
	if srcReg != nil {
		oSrc = &other.Regs[ins.Src]
		fSrc = srcReg
	}
	regSetMinMax(oDst, oSrc, op, true, is32)
	syncLinked(other, oDst.ID, oDst)
	if srcReg != nil {
		syncLinked(other, oSrc.ID, oSrc)
	}
	regSetMinMax(dst, fSrc, op, false, is32)
	syncLinked(st, dst.ID, dst)
	if srcReg != nil {
		syncLinked(st, fSrc.ID, fSrc)
	}
	v.fork(node, other, target, obsTok)
	return pc + 1, nil
}

// learnPktRange is the analog of the kernel's find_good_pkt_pointers: a
// 64-bit comparison between a packet pointer pkt+N and pkt_end proves, on
// the edge where pkt+N <=/< pkt_end holds, that at least N bytes past
// ctx->data are readable. fall and taken are the two successor states of
// the fork (the comparison instruction's fall-through and jump-target
// edges). N is bounded below by the pointer's fixed offset plus the
// unsigned minimum of its variable part, and learning is skipped past
// maxPacketOff — the kernel's overflow guard.
func learnPktRange(fall, taken *VState, dst, src *RegState, op uint8) {
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
	var good *VState
	switch op {
	case ebpf.JmpJGT, ebpf.JmpJGE:
		if swapped {
			good = taken
		} else {
			good = fall
		}
	case ebpf.JmpJLT, ebpf.JmpJLE:
		if swapped {
			good = fall
		} else {
			good = taken
		}
	default:
		return
	}
	if uint32(n) > good.PktRange {
		good.PktRange = uint32(n)
	}
}

// markPtrOrNull resolves every register and spill slot carrying the given
// or-null identity to either a known-zero scalar or a real map value
// pointer (mark_ptr_or_null_regs).
func markPtrOrNull(st *VState, id uint32, isNull bool) {
	fix := func(r *RegState) {
		if r.Type != PtrToMapValueOrNull || r.ID != id {
			return
		}
		if isNull {
			r.setConst(0)
		} else {
			r.Type = PtrToMapValue
			r.ID = 0
		}
	}
	for i := range st.Regs {
		fix(&st.Regs[i])
	}
	for i := range st.Stack {
		if st.Stack[i].Kind == SlotSpill {
			fix(&st.Stack[i].Spill)
		}
	}
}

// syncLinked propagates refined bounds to every scalar sharing the
// identity (find_equal_scalars / sync_linked_regs). Only 64-bit copies
// create identities, so the full state transfers.
func syncLinked(st *VState, id uint32, src *RegState) {
	if id == 0 || src.Type != Scalar {
		return
	}
	for i := range st.Regs {
		r := &st.Regs[i]
		if r != src && r.Type == Scalar && r.ID == id {
			*r = *src
		}
	}
	for i := range st.Stack {
		if st.Stack[i].Kind == SlotSpill {
			r := &st.Stack[i].Spill
			if r != src && r.Type == Scalar && r.ID == id {
				*r = *src
			}
		}
	}
}
