// Package verifier implements the in-kernel eBPF static analyzer: a
// path-sensitive abstract interpreter over the tnum domain and four
// interval domains (u64/s64/u32/s32), with pointer tracking, stack slot
// modeling, branch-guided range refinement, and state pruning — mirroring
// kernel/bpf/verifier.c. It is deliberately kept simple and linear-time
// per the paper's first design principle; when a safety check fails, it
// does not immediately reject but (if configured) triggers BCF's
// proof-guided abstraction refinement through the Refiner hook.
package verifier

import (
	"fmt"
	"math"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// RegType classifies the verifier's knowledge of what a register holds.
type RegType uint8

// Register types.
const (
	NotInit RegType = iota
	Scalar
	PtrToCtx
	PtrToStack
	ConstPtrToMap
	PtrToMapValue
	PtrToMapValueOrNull
	PtrToPacket
	PtrToPacketEnd
)

func (t RegType) String() string {
	switch t {
	case NotInit:
		return "?"
	case Scalar:
		return "scalar"
	case PtrToCtx:
		return "ctx"
	case PtrToStack:
		return "fp"
	case ConstPtrToMap:
		return "map_ptr"
	case PtrToMapValue:
		return "map_value"
	case PtrToMapValueOrNull:
		return "map_value_or_null"
	case PtrToPacket:
		return "pkt"
	case PtrToPacketEnd:
		return "pkt_end"
	}
	return "inval"
}

// IsPtr reports whether the type is any pointer kind.
func (t RegType) IsPtr() bool { return t >= PtrToCtx }

// RegState is the abstract value of one register. For scalars the bounds
// and Var describe the value; for pointers they describe the *variable*
// part of the offset, with the fixed part in Off (as in the kernel).
type RegState struct {
	Type   RegType
	Off    int32  // fixed offset from the base object (pointers only)
	MapIdx int32  // referenced map (map pointer kinds only)
	ID     uint32 // non-zero: identity for ptr-or-null and scalar aliasing

	Var  tnum.Tnum
	UMin uint64
	UMax uint64
	SMin int64
	SMax int64

	U32Min uint32
	U32Max uint32
	S32Min int32
	S32Max int32
}

// unknownScalar returns a scalar with no knowledge.
func unknownScalar() RegState {
	r := RegState{Type: Scalar, Var: tnum.Unknown}
	r.UMin, r.UMax = 0, math.MaxUint64
	r.SMin, r.SMax = math.MinInt64, math.MaxInt64
	r.U32Min, r.U32Max = 0, math.MaxUint32
	r.S32Min, r.S32Max = math.MinInt32, math.MaxInt32
	return r
}

// constScalar returns the scalar known to be exactly v.
func constScalar(v uint64) RegState {
	var r RegState
	r.setConst(v)
	return r
}

// setConst makes the register the scalar known to be exactly v. It
// writes every field in place, so the hot path never copies a RegState.
func (r *RegState) setConst(v uint64) {
	r.Type, r.Off, r.MapIdx, r.ID = Scalar, 0, 0, 0
	r.Var = tnum.Const(v)
	r.UMin, r.UMax = v, v
	r.SMin, r.SMax = int64(v), int64(v)
	v32 := uint32(v)
	r.U32Min, r.U32Max = v32, v32
	r.S32Min, r.S32Max = int32(v32), int32(v32)
}

// zeroVarPtr resets the variable-offset tracking of a pointer register.
func (r *RegState) zeroVar() {
	r.Var = tnum.Const(0)
	r.UMin, r.UMax = 0, 0
	r.SMin, r.SMax = 0, 0
	r.U32Min, r.U32Max = 0, 0
	r.S32Min, r.S32Max = 0, 0
}

// markUnknown turns the register into a scalar with no knowledge.
func (r *RegState) markUnknown() { *r = unknownScalar() }

// IsConst reports whether a scalar register has exactly one value.
func (r *RegState) IsConst() bool { return r.Var.IsConst() }

// ConstVal returns the constant value (valid when IsConst).
func (r *RegState) ConstVal() uint64 { return r.Var.Value }

// unsigned and signed are the two widths the interval domains are kept
// at: the whole register and its low word.
type (
	unsigned interface{ uint32 | uint64 }
	signed   interface{ int32 | int64 }
)

// interval is one width's view of a scalar: its tnum (view32 reads the
// low word's) and its unsigned and signed bounds. view64 and view32 read the whole
// register and its low word; the transfer functions and branch
// refinements are written once over it, where the kernel keeps a
// scalar_min_max_* and a scalar32_min_max_* copy of each.
type interval[U unsigned, S signed] struct {
	Var        tnum.Tnum
	UMin, UMax U
	SMin, SMax S
}

func (r *RegState) view64() interval[uint64, int64] {
	return interval[uint64, int64]{r.Var, r.UMin, r.UMax, r.SMin, r.SMax}
}

func (r *RegState) view32() interval[uint32, int32] {
	return interval[uint32, int32]{r.Var.Subreg(), r.U32Min, r.U32Max, r.S32Min, r.S32Max}
}

// set64 stores a whole-register view back.
func (r *RegState) set64(b interval[uint64, int64]) {
	r.Var, r.UMin, r.UMax, r.SMin, r.SMax = b.Var, b.UMin, b.UMax, b.SMin, b.SMax
}

// set32 stores a low-word view back, keeping the high word's tnum bits.
func (r *RegState) set32(b interval[uint32, int32]) {
	r.Var = r.Var.WithSubreg(b.Var)
	r.U32Min, r.U32Max, r.S32Min, r.S32Max = b.UMin, b.UMax, b.SMin, b.SMax
}

// bits is the width of the interval, 64 or 32.
func (b *interval[U, S]) bits() uint {
	if uint64(^U(0)) > math.MaxUint32 {
		return 64
	}
	return 32
}

func (b *interval[U, S]) unknownU() { b.UMin, b.UMax = 0, ^U(0) }

func (b *interval[U, S]) unknownS() {
	b.SMax = S(^U(0) >> 1)
	b.SMin = ^b.SMax
}

// signedFromUnsigned copies the unsigned bounds into the signed ones when
// ok (the operands were non-negative) and the unsigned range does not
// cross the sign boundary, and forgets them otherwise. OR and XOR take
// their unsigned maximum from the tnum, which sync can leave with the
// sign bit unknown even when the bounds know it is clear; copying that
// maximum would leave an empty signed range.
func (b *interval[U, S]) signedFromUnsigned(ok bool) {
	if ok && S(b.UMin) <= S(b.UMax) {
		b.SMin, b.SMax = S(b.UMin), S(b.UMax)
	} else {
		b.unknownS()
	}
}

// tighten narrows one width's bounds to its tnum, then each against the
// other (__update_reg{32,64}_bounds, then __reg{32,64}_deduce_bounds).
// It takes the fields by pointer rather than as an interval: sync runs
// after every ALU op, and copying a view in and out there is measurably
// slower.
func tighten[U unsigned, S signed](t tnum.Tnum, umin, umax *U, smin, smax *S) {
	sign := ^U(0)>>1 + 1
	v, m := U(t.Value), U(t.Mask)
	*smin = max(*smin, S(v|m&sign))
	*smax = min(*smax, S(v|m&^sign))
	*umin = max(*umin, v)
	*umax = min(*umax, v|m)
	// With the sign fixed, the signed range is an unsigned one.
	if *smin >= 0 || *smax < 0 {
		*umin = max(*umin, U(*smin))
		*umax = min(*umax, U(*smax))
	}
	// An unsigned range within one half is a signed one.
	if *umax < sign || *umin >= sign {
		*smin = max(*smin, S(*umin))
		*smax = min(*smax, S(*umax))
	}
}

// combine64Into32 derives 32-bit bounds when the 64-bit range fits in the
// low word (__reg_combine_64_into_32).
func (r *RegState) combine64Into32() {
	if r.UMax <= math.MaxUint32 {
		r.U32Min = max(r.U32Min, uint32(r.UMin))
		r.U32Max = min(r.U32Max, uint32(r.UMax))
	}
	if r.SMin >= math.MinInt32 && r.SMax <= math.MaxInt32 && r.SMin <= r.SMax {
		// Whole signed range fits in s32; low word equals the value if the
		// unsigned range also fits, which deduce handles; be conservative
		// and only learn when the value is the low word exactly.
		if r.UMax <= math.MaxUint32 {
			r.S32Min = max(r.S32Min, int32(r.SMin))
			r.S32Max = min(r.S32Max, int32(r.SMax))
		}
	}
}

// boundOffset tightens var_off from the interval bounds
// (__reg_bound_offset).
func (r *RegState) boundOffset() {
	r.Var = tnum.Intersect(r.Var, tnum.Range(r.UMin, r.UMax))
	v32 := tnum.Intersect(r.Var.Subreg(), tnum.Range(uint64(r.U32Min), uint64(r.U32Max)))
	r.Var = r.Var.WithSubreg(v32)
}

// sync re-establishes consistency across all five domains after a
// transfer function updated some of them (reg_bounds_sync).
func (r *RegState) sync() {
	tighten(r.Var, &r.UMin, &r.UMax, &r.SMin, &r.SMax)
	tighten(r.Var, &r.U32Min, &r.U32Max, &r.S32Min, &r.S32Max)
	r.combine64Into32()
	r.boundOffset()
	tighten(r.Var, &r.UMin, &r.UMax, &r.SMin, &r.SMax)
	tighten(r.Var, &r.U32Min, &r.U32Max, &r.S32Min, &r.S32Max)
}

// zext32 truncates the register to its low 32 bits, zero-extending
// (the effect of every ALU32 result and of 32-bit mov).
func (r *RegState) zext32() {
	r.Var = r.Var.Cast(4)
	// The low word is copied as unsigned into the 64-bit register, so the
	// 64-bit value lies in [U32Min, U32Max] under both interpretations.
	r.UMin = uint64(r.U32Min)
	r.UMax = uint64(r.U32Max)
	r.SMin = int64(r.UMin)
	r.SMax = int64(r.UMax)
	r.sync()
}

// String renders the register like the kernel verifier log.
func (r *RegState) String() string {
	switch r.Type {
	case NotInit:
		return "?"
	case Scalar:
		if r.IsConst() {
			return fmt.Sprintf("%d", int64(r.ConstVal()))
		}
		return fmt.Sprintf("scalar(umin=%d,umax=%d,smin=%d,smax=%d,var=%s)",
			r.UMin, r.UMax, r.SMin, r.SMax, r.Var)
	case PtrToStack:
		return fmt.Sprintf("fp%+d", r.Off)
	case PtrToCtx:
		return fmt.Sprintf("ctx%+d", r.Off)
	case ConstPtrToMap:
		return fmt.Sprintf("map_ptr[%d]", r.MapIdx)
	case PtrToMapValue, PtrToMapValueOrNull:
		name := "map_value"
		if r.Type == PtrToMapValueOrNull {
			name = "map_value_or_null"
		}
		if r.Var.IsConst() && r.Var.Value == 0 {
			return fmt.Sprintf("%s[%d]%+d", name, r.MapIdx, r.Off)
		}
		return fmt.Sprintf("%s[%d]%+d(var umax=%d)", name, r.MapIdx, r.Off, r.UMax)
	case PtrToPacket:
		if r.Var.IsConst() && r.Var.Value == 0 {
			return fmt.Sprintf("pkt%+d", r.Off)
		}
		return fmt.Sprintf("pkt%+d(var umax=%d)", r.Off, r.UMax)
	case PtrToPacketEnd:
		return "pkt_end"
	}
	return "inval"
}

// StackSlotKind describes one 8-byte stack slot.
type StackSlotKind uint8

// Stack slot kinds.
const (
	SlotInvalid StackSlotKind = iota // never written
	SlotMisc                         // written with data the verifier does not track
	SlotSpill                        // holds a full 8-byte register spill
	SlotZero                         // written with constant zero bytes
)

// StackSlot models one 8-byte slot of the frame.
type StackSlot struct {
	Kind  StackSlotKind
	Spill RegState // valid when Kind == SlotSpill
}

// NumStackSlots is the number of 8-byte slots in a frame.
const NumStackSlots = ebpf.StackSize / 8

// VState is the verifier state for one analysis path position.
//
// Stack[j] is the frame slot at fp-8*(j+1), only as deep as the deepest
// slot written (the kernel's allocated_stack); every slot past it is
// SlotInvalid. Access frame slots through slot and Verifier.setSlot.
//
// PktRange is the number of bytes past ctx->data proven readable on this
// path (the kernel's pkt_range analog, learned from data/data_end
// comparisons). It is state-level, not per-register, because every packet
// pointer on a path derives from the same ctx->data load: a range learned
// for one applies to all.
type VState struct {
	Regs     [ebpf.MaxReg]RegState
	Stack    []StackSlot
	PktRange uint32
}

// slot returns frame slot i (0 is fp-512, NumStackSlots-1 is fp-8); a
// slot outside the frame reads as SlotInvalid.
func (s *VState) slot(i int) StackSlot {
	if j := NumStackSlots - 1 - i; uint(j) < uint(len(s.Stack)) {
		return s.Stack[j]
	}
	return StackSlot{}
}

// clone deep-copies the state into c, or into a new state when c is
// nil, for the pruning table, whose entries outlive their path: it
// copies Stack into c's own backing array, and no other field of VState,
// RegState or StackSlot is a reference, so a clone shares nothing
// mutable with its origin. Any reference field added to these types
// must be copied here too.
func (s *VState) clone(c *VState) *VState {
	if c == nil {
		c = new(VState)
	}
	stack := c.Stack
	*c = *s
	c.Stack = append(stack[:0], s.Stack...)
	return c
}

// entryState is the verifier state at program entry.
func entryState() (s VState) {
	s.Regs[ebpf.R1] = RegState{Type: PtrToCtx}
	s.Regs[ebpf.R1].zeroVar()
	s.Regs[ebpf.R10] = RegState{Type: PtrToStack}
	s.Regs[ebpf.R10].zeroVar()
	return s
}
