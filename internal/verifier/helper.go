package verifier

import (
	"fmt"

	"bcf/internal/ebpf"
)

// checkCall verifies a helper call's arguments against the helper's
// contract and models the call's effect on the register state.
func (v *Verifier) checkCall(st *VState, pc int, ins *ebpf.Instruction, node int32) error {
	if ins.UsesSrcReg() || ins.Off != 0 {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "unsupported call form"}
	}
	spec, err := ebpf.LookupHelper(ebpf.HelperID(ins.Imm))
	if err != nil {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: err.Error()}
	}

	mapIdx := int32(-1) // map argument seen so far (for ret typing)
	var memArg ebpf.Reg // pending ArgPtrToMem/UninitMem register
	memWrite := false   // whether the pending mem arg is written
	haveMemArg := false

	for i := 0; i < spec.NumArgs(); i++ {
		regno := ebpf.R1 + ebpf.Reg(i)
		reg := &st.Regs[regno]
		at := spec.Args[i]
		if reg.Type == NotInit {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d !read_ok", regno)}
		}
		switch at {
		case ebpf.ArgConstMapPtr:
			if reg.Type != ConstPtrToMap {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("R%d type=%s expected=map_ptr", regno, reg.Type)}
			}
			mapIdx = reg.MapIdx

		case ebpf.ArgPtrToMapKey:
			if mapIdx < 0 {
				return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "map key arg without map arg"}
			}
			keySize := int(v.prog.Maps[mapIdx].KeySize)
			if err := v.checkHelperMemArg(st, pc, regno, keySize, false, node); err != nil {
				return err
			}

		case ebpf.ArgPtrToMapValue:
			if mapIdx < 0 {
				return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "map value arg without map arg"}
			}
			valSize := int(v.prog.Maps[mapIdx].ValueSize)
			if err := v.checkHelperMemArg(st, pc, regno, valSize, false, node); err != nil {
				return err
			}

		case ebpf.ArgPtrToMem, ebpf.ArgPtrToUninitMem:
			if !reg.Type.IsPtr() || reg.Type == ConstPtrToMap || reg.Type == PtrToMapValueOrNull || reg.Type == PtrToCtx {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("R%d type=%s expected=pointer to memory", regno, reg.Type)}
			}
			memArg = regno
			memWrite = at == ebpf.ArgPtrToUninitMem
			haveMemArg = true

		case ebpf.ArgConstSize, ebpf.ArgConstSizeOrZero:
			if reg.Type != Scalar {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("R%d type=%s expected=scalar size", regno, reg.Type)}
			}
			if !haveMemArg {
				return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "size arg without memory arg"}
			}
			zeroOK := at == ebpf.ArgConstSizeOrZero
			if err := v.checkHelperSize(st, pc, memArg, regno, memWrite, zeroOK, node); err != nil {
				return err
			}
			haveMemArg = false

		case ebpf.ArgAnything:
			// Any initialized value is fine.
		}
	}

	// Model the call's effect: R1-R5 are clobbered, R0 set per ret type.
	for r := ebpf.R1; r <= ebpf.R5; r++ {
		*v.reg(r) = RegState{Type: NotInit}
	}
	switch spec.Ret {
	case ebpf.RetPtrToMapValueOrNull:
		if mapIdx < 0 {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "helper returns map value without map arg"}
		}
		r0 := RegState{Type: PtrToMapValueOrNull, MapIdx: mapIdx, ID: v.newID()}
		r0.zeroVar()
		*v.reg(ebpf.R0) = r0
	case ebpf.RetVoid:
		*v.reg(ebpf.R0) = RegState{Type: NotInit}
	default:
		*v.reg(ebpf.R0) = unknownScalar()
	}
	return nil
}

// checkHelperMemArg validates a fixed-size memory argument (map key or
// value pointers).
func (v *Verifier) checkHelperMemArg(st *VState, pc int, regno ebpf.Reg, size int, write bool, node int32) error {
	reg := &st.Regs[regno]
	switch reg.Type {
	case PtrToStack, PtrToMapValue:
		if err := v.checkMemAccess(st, pc, regno, 0, size, write, node); err != nil {
			return err
		}
		return v.stackArg(st, pc, reg, size, write)
	}
	return &Error{InsnIdx: pc, Kind: CheckOther,
		Msg: fmt.Sprintf("R%d type=%s expected=fp or map_value", regno, reg.Type)}
}

// checkHelperSize validates an (ArgPtrToMem, ArgConstSize) pair: the
// access [mem, mem+size) must lie within the memory region for every
// possible size value. This is a primary BCF refinement site (cf. the
// paper's Listing 7 and Listing 9 case studies).
func (v *Verifier) checkHelperSize(st *VState, pc int, memReg, sizeReg ebpf.Reg, write, zeroOK bool, node int32) error {
	for {
		err := v.checkHelperSizeOnce(st, pc, memReg, sizeReg, write, zeroOK)
		if err == nil {
			return nil
		}
		verr, ok := err.(*Error)
		if !ok || verr.Kind != CheckHelperSize {
			return err
		}
		mem := &st.Regs[memReg]
		avail := v.regionAvail(mem)
		lo := uint64(1)
		if zeroOK {
			lo = 0
		}
		hi := uint64(avail)
		if avail < int64(lo) {
			// Unsatisfiable in any range: only path pruning can help.
			lo, hi = 1, 0
		}
		if rerr := v.refine(st, pc, sizeReg, CheckHelperSize, lo, hi, node, func() error { return err }); rerr != nil {
			return rerr
		}
	}
}

// regionAvail returns how many bytes are available from the pointer's
// maximum possible position to the end of its region (-1 if unknown).
func (v *Verifier) regionAvail(mem *RegState) int64 {
	switch mem.Type {
	case PtrToStack:
		// Bytes available from the pointer's max offset down... stack
		// grows down: pointer at fp+off+var; available upward to fp.
		if mem.SMax > int64(ebpf.StackSize) {
			return -1
		}
		return -(int64(mem.Off) + mem.SMax)
	case PtrToMapValue:
		if mem.UMax > uint64(v.prog.Maps[mem.MapIdx].ValueSize) {
			return -1
		}
		return int64(v.prog.Maps[mem.MapIdx].ValueSize) - int64(mem.Off) - int64(mem.UMax)
	}
	return -1
}

func (v *Verifier) checkHelperSizeOnce(st *VState, pc int, memReg, sizeReg ebpf.Reg, write, zeroOK bool) error {
	size := &st.Regs[sizeReg]
	mem := &st.Regs[memReg]
	if size.UMin == 0 && !zeroOK {
		return &Error{InsnIdx: pc, Kind: CheckHelperSize,
			Msg: fmt.Sprintf("R%d invalid zero-size read", sizeReg)}
	}
	if size.SMin < 0 {
		return &Error{InsnIdx: pc, Kind: CheckHelperSize,
			Msg: fmt.Sprintf("R%d min value is negative", sizeReg)}
	}
	avail := v.regionAvail(mem)
	if avail < 0 {
		return &Error{InsnIdx: pc, Kind: CheckHelperMem,
			Msg: fmt.Sprintf("R%d unbounded memory pointer", memReg)}
	}
	if size.UMax > uint64(avail) {
		return &Error{InsnIdx: pc, Kind: CheckHelperSize,
			Msg: fmt.Sprintf("invalid indirect access: size R%d umax=%d exceeds available %d",
				sizeReg, size.UMax, avail)}
	}
	if size.UMax == 0 {
		return nil // zero-size access touches nothing
	}
	// The base access itself (min position, max extent) must be valid.
	if _, err := v.memFault(st, pc, mem, memReg, 0, int(size.UMax), write, true); err != nil {
		return err
	}
	return v.stackArg(st, pc, mem, int(size.UMax), write)
}
