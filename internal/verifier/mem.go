package verifier

import (
	"fmt"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// maxPacketOff mirrors the kernel's MAX_PACKET_OFF (0xffff): packet
// offsets beyond it can never be proven in range, which keeps all
// packet-bound arithmetic overflow-free.
const maxPacketOff = 0xffff

// checkLoad verifies an LDX instruction and models its effect.
func (v *Verifier) checkLoad(st *VState, pc int, ins *ebpf.Instruction, node int32) error {
	src := &st.Regs[ins.Src]
	if src.Type == NotInit {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
	}
	size := ins.LoadSize()
	if err := v.checkMemAccess(st, pc, ins.Src, ins.Off, size, false, node); err != nil {
		return err
	}
	dst := v.reg(ins.Dst)
	switch src.Type {
	case PtrToStack:
		*dst = v.readStack(st, src, ins.Off, size)
	case PtrToCtx:
		if pt, ok := ctxPacketField(v.prog.Type, src, ins.Off, size); ok {
			*dst = RegState{Type: pt}
			dst.zeroVar()
		} else {
			*dst = loadedScalar(size)
		}
	default:
		*dst = loadedScalar(size)
	}
	return nil
}

// ctxPacketField reports whether a context load yields a packet pointer:
// under XDP, the 4-byte data and data_end fields of struct xdp_md
// (offsets 0 and 4) load as pkt / pkt_end pointers rather than scalars
// (the kernel's convert_ctx_access for xdp_md).
func ctxPacketField(t ebpf.ProgType, reg *RegState, off int16, size int) (RegType, bool) {
	if t != ebpf.ProgXDP || size != 4 || !reg.Var.IsConst() {
		return 0, false
	}
	switch int64(reg.Off) + int64(off) + int64(reg.Var.Value) {
	case 0:
		return PtrToPacket, true
	case 4:
		return PtrToPacketEnd, true
	}
	return 0, false
}

// loadedScalar is the abstract value of a size-byte memory load.
func loadedScalar(size int) RegState {
	r := unknownScalar()
	if size < 8 {
		hi := uint64(1)<<(size*8) - 1
		r.UMax = hi
		r.SMin, r.SMax = 0, int64(hi)
		r.Var = tnum.Range(0, hi)
		r.sync()
	}
	return r
}

// checkStore verifies ST/STX instructions and models their effect.
func (v *Verifier) checkStore(st *VState, pc int, ins *ebpf.Instruction, node int32) error {
	dst := &st.Regs[ins.Dst]
	if dst.Type == NotInit {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Dst)}
	}
	size := ins.LoadSize()
	atomic := ins.Class() == ebpf.ClassSTX && ins.Mode() == ebpf.ModeATOMIC
	var srcReg *RegState
	if ins.Class() == ebpf.ClassSTX {
		srcReg = &st.Regs[ins.Src]
		if srcReg.Type == NotInit {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
		}
		if atomic && srcReg.Type.IsPtr() {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d atomic add of a pointer prohibited", ins.Src)}
		}
		if srcReg.Type.IsPtr() && !(dst.Type == PtrToStack && size == 8) {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d leaks addr into memory", ins.Src)}
		}
	}
	if err := v.checkMemAccess(st, pc, ins.Dst, ins.Off, size, true, node); err != nil {
		return err
	}
	if dst.Type == PtrToStack {
		if atomic {
			// Read-modify-write: the slot's tracked contents are gone.
			v.writeStack(st, dst, ins.Off, size, nil, ins)
		} else {
			v.writeStack(st, dst, ins.Off, size, srcReg, ins)
		}
	}
	return nil
}

// checkMemAccess validates one access of `size` bytes at reg+off,
// triggering BCF refinement at the instrumented rejection sites.
func (v *Verifier) checkMemAccess(st *VState, pc int, regno ebpf.Reg, off int16, size int, write bool, node int32) error {
	for {
		reg := &st.Regs[regno]
		kind, _ := v.memFault(st, pc, reg, regno, off, size, write, false)
		if kind == CheckNone || v.cfg.Sabotage.skipsBounds(kind) {
			return nil
		}
		// Where no variable range can satisfy the check (e.g. the fixed
		// offset alone is out of bounds), the only way out is a proof that
		// the path itself is infeasible (paper Listing 8): lo > hi asks it.
		lo, hi := uint64(1), uint64(0)
		switch kind {
		case CheckMapAccess:
			valSize := int64(v.prog.Maps[reg.MapIdx].ValueSize)
			if h := valSize - int64(size) - int64(reg.Off) - int64(off); h >= 0 {
				lo, hi = 0, uint64(h)
			}
		case CheckStackAccess:
			// Variable stack offset: the variable part must keep the whole
			// access within [-StackSize, 0). fixed + var + size <= 0 and
			// fixed + var >= -StackSize, with var proven unsigned-bounded.
			fixed := int64(reg.Off) + int64(off)
			h := -int64(size) - fixed
			l := max(-int64(ebpf.StackSize)-fixed, 0)
			if h >= l {
				lo, hi = uint64(l), uint64(h)
			}
		case CheckPktAccess:
			// The variable offset must keep fixed + var + size within the
			// proven packet range.
			if h := int64(st.PktRange) - int64(size) - int64(reg.Off) - int64(off); h >= 0 {
				lo, hi = 0, uint64(h)
			}
		}
		orig := func() error { _, err := v.memFault(st, pc, reg, regno, off, size, write, true); return err }
		if rerr := v.refine(st, pc, regno, kind, lo, hi, node, orig); rerr != nil {
			return rerr
		}
		// Refinement adopted: re-check the same access.
	}
}

// memFault returns the check an access of size bytes at reg+off fails,
// or CheckNone, and with describe set also the rejection: a failure that
// a refinement repairs is never formatted.
func (v *Verifier) memFault(st *VState, pc int, reg *RegState, regno ebpf.Reg, off int16, size int, write, describe bool) (CheckKind, error) {
	fail := func(kind CheckKind, msg func() string) (CheckKind, error) {
		if !describe {
			return kind, nil
		}
		return kind, &Error{InsnIdx: pc, Kind: kind, Msg: msg()}
	}
	switch reg.Type {
	case PtrToStack:
		fixed := int64(reg.Off) + int64(off)
		// Guard against overflow in the bound arithmetic below: a variable
		// part outside a generous window is out of bounds regardless.
		if reg.SMin < -4*ebpf.StackSize || reg.SMax > 4*ebpf.StackSize {
			return fail(CheckStackAccess, func() string {
				return fmt.Sprintf("invalid unbounded variable-offset %s stack R%d", rw(write), regno)
			})
		}
		minOff := fixed + reg.SMin
		maxOff := fixed + reg.SMax
		if minOff < -ebpf.StackSize || maxOff+int64(size) > 0 {
			return fail(CheckStackAccess, func() string {
				return fmt.Sprintf("invalid %s stack R%d off=%d size=%d (range [%d,%d])",
					rw(write), regno, off, size, minOff, maxOff)
			})
		}
		return CheckNone, nil

	case PtrToMapValue:
		valSize := int64(v.prog.Maps[reg.MapIdx].ValueSize)
		fixed := int64(reg.Off) + int64(off)
		// Lower bound: the signed minimum of the full offset must be >= 0.
		if fixed+reg.SMin < 0 {
			return fail(CheckMapAccess, func() string {
				return fmt.Sprintf("R%d min value is negative, either use unsigned index or do a if (index >=0) check", regno)
			})
		}
		// Upper bound: umax of the full offset plus access size must fit.
		if reg.UMax > uint64(valSize) || fixed+int64(reg.UMax)+int64(size) > valSize {
			return fail(CheckMapAccess, func() string {
				return fmt.Sprintf("invalid access to map value, value_size=%d off=%d size=%d (R%d max offset %d)",
					valSize, fixed, size, regno, fixed+int64(reg.UMax))
			})
		}
		return CheckNone, nil

	case PtrToCtx:
		// Context accesses require a constant offset; this rejection site
		// is deliberately NOT instrumented for refinement (paper §6.2:
		// a small number of sites remain uninstrumented).
		if !reg.Var.IsConst() {
			return fail(CheckCtxAccess, func() string {
				return fmt.Sprintf("variable ctx access var_off=%s off=%d size=%d", reg.Var, off, size)
			})
		}
		if write && v.prog.Type == ebpf.ProgTracepoint {
			// The tracepoint context is the raw trace record: read-only.
			return fail(CheckCtxAccess, func() string {
				return fmt.Sprintf("invalid bpf_context access off=%d size=%d (tracepoint ctx is read-only)", off, size)
			})
		}
		coff := int64(reg.Off) + int64(off) + int64(reg.Var.Value)
		ctxSize := int64(v.prog.Type.CtxSize())
		if coff < 0 || coff+int64(size) > ctxSize {
			return fail(CheckCtxAccess, func() string {
				return fmt.Sprintf("invalid bpf_context access off=%d size=%d", coff, size)
			})
		}
		return CheckNone, nil

	case PtrToPacket:
		fixed := int64(reg.Off) + int64(off)
		if fixed+reg.SMin < 0 {
			return fail(CheckPktAccess, func() string {
				return fmt.Sprintf("R%d min packet offset is negative (%d)", regno, fixed+reg.SMin)
			})
		}
		// The unsigned-max guard doubles as the overflow guard: a variable
		// part past the kernel's MAX_PACKET_OFF can never be in range.
		if reg.UMax > maxPacketOff || fixed+int64(reg.UMax)+int64(size) > int64(st.PktRange) {
			return fail(CheckPktAccess, func() string {
				return fmt.Sprintf("invalid access to packet, off=%d size=%d, R%d pkt range=%d",
					fixed, size, regno, st.PktRange)
			})
		}
		return CheckNone, nil

	case NotInit:
		return fail(CheckOther, func() string { return fmt.Sprintf("R%d invalid mem access", regno) })
	}
	// Every other type (pkt_end, map_value_or_null, map_ptr, scalar) is
	// not a pointer to accessible memory.
	return fail(CheckOther, func() string { return fmt.Sprintf("R%d invalid mem access '%s'", regno, reg.Type) })
}

func rw(write bool) string {
	if write {
		return "write to"
	}
	return "read from"
}

// slotRange returns the stack slot indexes covered by an access with a
// constant final offset (negative, relative to the frame top).
func slotRange(off int64, size int) (int, int) {
	lo := ebpf.StackSize + int(off)
	return lo / 8, (lo + size - 1) / 8
}

// writeStack models the effect of a store through a stack pointer.
func (v *Verifier) writeStack(st *VState, reg *RegState, off int16, size int, src *RegState, ins *ebpf.Instruction) {
	if !reg.Var.IsConst() {
		// Variable offset write: smudge every slot it may touch.
		minOff := int64(reg.Off) + int64(off) + reg.SMin
		maxOff := int64(reg.Off) + int64(off) + reg.SMax
		s0, s1 := slotRange(minOff, 1)
		_, s1b := slotRange(maxOff, size)
		if s1b > s1 {
			s1 = s1b
		}
		for i := s0; i <= s1 && i < NumStackSlots; i++ {
			if i >= 0 {
				v.setSlot(i, StackSlot{Kind: SlotMisc})
			}
		}
		return
	}
	fixed := int64(reg.Off) + int64(off) + int64(reg.Var.Value)
	s0, s1 := slotRange(fixed, size)
	// The bounds check normally guarantees s0..s1 lie in the frame, but
	// state modeling must stay total even when it did not (a sabotaged or
	// buggy check): clamp instead of indexing out of range.
	if size == 8 && fixed%8 == 0 && src != nil {
		// Register-sized aligned spill: preserve the full abstract state.
		if s0 >= 0 && s0 < NumStackSlots {
			v.setSlot(s0, StackSlot{Kind: SlotSpill, Spill: *src})
		}
		return
	}
	kind := SlotMisc
	if ins.Class() == ebpf.ClassST && ins.Imm == 0 {
		kind = SlotZero
	} else if src != nil && src.IsConst() && src.ConstVal() == 0 {
		kind = SlotZero
	}
	lo := ebpf.StackSize + int(fixed)
	for i := max(s0, 0); i <= s1 && i < NumStackSlots; i++ {
		if kind == SlotZero && st.slot(i).Kind == SlotZero {
			continue
		}
		k := kind
		if k == SlotZero && (lo > i*8 || lo+size < (i+1)*8) {
			// A zero store that covers only part of this slot: the
			// uncovered bytes keep their previous (non-zero-tracked)
			// contents, so the slot as a whole is not known zero. Marking
			// it zero anyway once let a u32 zero store erase the upper
			// half of a live u64 spill and claim the whole slot was zero
			// (fuzz-domain regression).
			k = SlotMisc
		}
		v.setSlot(i, StackSlot{Kind: k})
	}
}

// readStack models the result of a load through a stack pointer (the
// bounds check has already passed).
func (v *Verifier) readStack(st *VState, reg *RegState, off int16, size int) RegState {
	if !reg.Var.IsConst() {
		return loadedScalar(size)
	}
	fixed := int64(reg.Off) + int64(off) + int64(reg.Var.Value)
	s0, s1 := slotRange(fixed, size)
	// Stay total past the frame edge (see writeStack): out-of-range slots
	// read as SlotInvalid, hence as untracked data.
	if size == 8 && fixed%8 == 0 {
		slot := st.slot(s0)
		switch slot.Kind {
		case SlotSpill:
			return slot.Spill // fill restores the spilled register
		case SlotZero:
			return constScalar(0)
		}
		return loadedScalar(size)
	}
	// Sub-register read: if all covered slots are zero, the result is 0.
	allZero := true
	for i := s0; i <= s1; i++ {
		if st.slot(i).Kind != SlotZero {
			allZero = false
		}
	}
	if allZero {
		return constScalar(0)
	}
	return loadedScalar(size)
}

// stackArg validates that the size bytes a helper reads through the
// constant stack pointer reg are initialized, or marks the bytes it
// writes as untracked data.
func (v *Verifier) stackArg(st *VState, pc int, reg *RegState, size int, write bool) error {
	if reg.Type != PtrToStack || !reg.Var.IsConst() {
		return nil
	}
	fixed := int64(reg.Off) + int64(reg.Var.Value)
	s0, s1 := slotRange(fixed, size)
	for i := s0; i <= s1; i++ {
		switch {
		case write:
			if i >= 0 && i < NumStackSlots {
				v.setSlot(i, StackSlot{Kind: SlotMisc})
			}
		case i < 0 || i >= NumStackSlots:
			return &Error{InsnIdx: pc, Kind: CheckStackAccess, Msg: "stack access out of frame"}
		case st.slot(i).Kind == SlotInvalid:
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("invalid indirect read from stack off %d", fixed)}
		}
	}
	return nil
}
