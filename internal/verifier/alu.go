package verifier

import (
	"math"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// markRangesUnknown64 widens the 64-bit interval domains (keeping tnum).
func (r *RegState) markRangesUnknown64() {
	r.UMin, r.UMax = 0, math.MaxUint64
	r.SMin, r.SMax = math.MinInt64, math.MaxInt64
}

// markRangesUnknown32 widens the 32-bit interval domains.
func (r *RegState) markRangesUnknown32() {
	r.U32Min, r.U32Max = 0, math.MaxUint32
	r.S32Min, r.S32Max = math.MinInt32, math.MaxInt32
}

func signedAddOverflows(a, b int64) bool {
	s := a + b
	return (b > 0 && s < a) || (b < 0 && s > a)
}

func signedSubOverflows(a, b int64) bool {
	s := a - b
	return (b < 0 && s < a) || (b > 0 && s > a)
}

func signedAddOverflows32(a, b int32) bool {
	s := a + b
	return (b > 0 && s < a) || (b < 0 && s > a)
}

func signedSubOverflows32(a, b int32) bool {
	s := a - b
	return (b < 0 && s < a) || (b > 0 && s > a)
}

// scalarAdd implements scalar_min_max_add + the tnum update.
func scalarAdd(dst *RegState, src *RegState) {
	if signedAddOverflows(dst.SMin, src.SMin) || signedAddOverflows(dst.SMax, src.SMax) {
		dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	} else {
		dst.SMin += src.SMin
		dst.SMax += src.SMax
	}
	if dst.UMin+src.UMin < dst.UMin || dst.UMax+src.UMax < dst.UMax {
		dst.UMin, dst.UMax = 0, math.MaxUint64
	} else {
		dst.UMin += src.UMin
		dst.UMax += src.UMax
	}
	dst.Var = tnum.Add(dst.Var, src.Var)
	dst.markRangesUnknown32()
}

func scalarSub(dst *RegState, src *RegState) {
	if signedSubOverflows(dst.SMin, src.SMax) || signedSubOverflows(dst.SMax, src.SMin) {
		dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	} else {
		dst.SMin -= src.SMax
		dst.SMax -= src.SMin
	}
	if dst.UMin < src.UMax {
		dst.UMin, dst.UMax = 0, math.MaxUint64
	} else {
		dst.UMin -= src.UMax
		dst.UMax -= src.UMin
	}
	dst.Var = tnum.Sub(dst.Var, src.Var)
	dst.markRangesUnknown32()
}

func scalarMul(dst *RegState, src *RegState) {
	dst.Var = tnum.Mul(dst.Var, src.Var)
	if dst.SMin < 0 || src.SMin < 0 ||
		dst.UMax > math.MaxUint32 || src.UMax > math.MaxUint32 {
		dst.markRangesUnknown64()
	} else {
		dst.UMin *= src.UMin
		dst.UMax *= src.UMax
		if dst.UMax > uint64(math.MaxInt64) {
			dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
		} else {
			dst.SMin = int64(dst.UMin)
			dst.SMax = int64(dst.UMax)
		}
	}
	dst.markRangesUnknown32()
}

func scalarAnd(dst *RegState, src *RegState) {
	dst.Var = tnum.And(dst.Var, src.Var)
	negative := dst.SMin < 0 || src.SMin < 0
	dst.UMin = dst.Var.Value
	dst.UMax = minU(dst.UMax, src.UMax)
	dst.UMax = minU(dst.UMax, dst.Var.Value|dst.Var.Mask)
	if negative {
		dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	} else {
		dst.SMin = int64(dst.UMin)
		dst.SMax = int64(dst.UMax)
	}
	dst.markRangesUnknown32()
}

func scalarOr(dst *RegState, src *RegState) {
	negative := dst.SMin < 0 || src.SMin < 0
	dst.Var = tnum.Or(dst.Var, src.Var)
	dst.UMin = maxU(dst.UMin, src.UMin)
	dst.UMin = maxU(dst.UMin, dst.Var.Value)
	dst.UMax = dst.Var.Value | dst.Var.Mask
	if negative {
		dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	} else {
		dst.SMin = int64(dst.UMin)
		dst.SMax = int64(dst.UMax)
	}
	dst.markRangesUnknown32()
}

func scalarXor(dst *RegState, src *RegState) {
	nonNegative := dst.SMin >= 0 && src.SMin >= 0
	dst.Var = tnum.Xor(dst.Var, src.Var)
	dst.UMin = dst.Var.Value
	dst.UMax = dst.Var.Value | dst.Var.Mask
	if nonNegative {
		dst.SMin = int64(dst.UMin)
		dst.SMax = int64(dst.UMax)
	} else {
		dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	}
	dst.markRangesUnknown32()
}

func scalarLsh(dst *RegState, src *RegState) {
	if src.UMax >= 64 {
		dst.markUnknown()
		return
	}
	if src.IsConst() {
		sh := uint(src.ConstVal())
		dst.Var = dst.Var.Lsh(sh)
		if dst.UMax <= math.MaxUint64>>sh {
			dst.UMin <<= sh
			dst.UMax <<= sh
		} else {
			dst.UMin, dst.UMax = 0, math.MaxUint64
		}
	} else {
		dst.Var = tnum.Unknown
		if dst.UMax <= math.MaxUint64>>uint(src.UMax) {
			dst.UMin <<= uint(src.UMin)
			dst.UMax <<= uint(src.UMax)
		} else {
			dst.UMin, dst.UMax = 0, math.MaxUint64
		}
	}
	dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	dst.markRangesUnknown32()
}

func scalarRsh(dst *RegState, src *RegState) {
	if src.UMax >= 64 {
		dst.markUnknown()
		return
	}
	if src.IsConst() {
		sh := uint(src.ConstVal())
		dst.Var = dst.Var.Rsh(sh)
		dst.UMin >>= sh
		dst.UMax >>= sh
	} else {
		dst.Var = tnum.Unknown
		dst.UMin >>= uint(src.UMax)
		dst.UMax >>= uint(src.UMin)
	}
	// A logical right shift always produces a non-negative value, which
	// sync derives from the unsigned range.
	dst.SMin, dst.SMax = math.MinInt64, math.MaxInt64
	dst.markRangesUnknown32()
}

func scalarArsh(dst *RegState, src *RegState) {
	if !src.IsConst() || src.ConstVal() >= 64 {
		dst.markUnknown()
		return
	}
	sh := uint(src.ConstVal())
	dst.Var = dst.Var.Arsh(sh, 64)
	dst.SMin >>= sh
	dst.SMax >>= sh
	dst.UMin, dst.UMax = 0, math.MaxUint64
	dst.markRangesUnknown32()
}

// ---------- 32-bit variants ----------

// load32 extracts the 32-bit view of a register for 32-bit transfer
// functions: tnum subreg plus 32-bit interval bounds.
type reg32 struct {
	Var        tnum.Tnum
	UMin, UMax uint32
	SMin, SMax int32
}

func (r *RegState) view32() reg32 {
	return reg32{Var: r.Var.Subreg(), UMin: r.U32Min, UMax: r.U32Max, SMin: r.S32Min, SMax: r.S32Max}
}

func (r *reg32) isConst() bool { return r.Var.Subreg().IsConst() }

// store32 writes the 32-bit result back and zero-extends into 64 bits.
func (dst *RegState) store32(v reg32) {
	dst.Var = v.Var.Cast(4)
	dst.U32Min, dst.U32Max = v.UMin, v.UMax
	dst.S32Min, dst.S32Max = v.SMin, v.SMax
	dst.zext32()
}

func scalarAdd32(d *reg32, s reg32) {
	if signedAddOverflows32(d.SMin, s.SMin) || signedAddOverflows32(d.SMax, s.SMax) {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	} else {
		d.SMin += s.SMin
		d.SMax += s.SMax
	}
	if d.UMin+s.UMin < d.UMin || d.UMax+s.UMax < d.UMax {
		d.UMin, d.UMax = 0, math.MaxUint32
	} else {
		d.UMin += s.UMin
		d.UMax += s.UMax
	}
	d.Var = tnum.Add(d.Var, s.Var).Cast(4)
}

func scalarSub32(d *reg32, s reg32) {
	if signedSubOverflows32(d.SMin, s.SMax) || signedSubOverflows32(d.SMax, s.SMin) {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	} else {
		d.SMin -= s.SMax
		d.SMax -= s.SMin
	}
	if d.UMin < s.UMax {
		d.UMin, d.UMax = 0, math.MaxUint32
	} else {
		d.UMin -= s.UMax
		d.UMax -= s.UMin
	}
	d.Var = tnum.Sub(d.Var, s.Var).Cast(4)
}

func scalarMul32(d *reg32, s reg32) {
	d.Var = tnum.Mul(d.Var, s.Var).Cast(4)
	if d.SMin < 0 || s.SMin < 0 || d.UMax > math.MaxUint16 || s.UMax > math.MaxUint16 {
		d.UMin, d.UMax = 0, math.MaxUint32
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
		return
	}
	d.UMin *= s.UMin
	d.UMax *= s.UMax
	if d.UMax > uint32(math.MaxInt32) {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	} else {
		d.SMin = int32(d.UMin)
		d.SMax = int32(d.UMax)
	}
}

func scalarAnd32(d *reg32, s reg32) {
	negative := d.SMin < 0 || s.SMin < 0
	d.Var = tnum.And(d.Var, s.Var).Cast(4)
	d.UMin = uint32(d.Var.Value)
	d.UMax = minU32(d.UMax, s.UMax)
	d.UMax = minU32(d.UMax, uint32(d.Var.Value|d.Var.Mask))
	if negative {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	} else {
		d.SMin = int32(d.UMin)
		d.SMax = int32(d.UMax)
	}
}

func scalarOr32(d *reg32, s reg32) {
	negative := d.SMin < 0 || s.SMin < 0
	d.Var = tnum.Or(d.Var, s.Var).Cast(4)
	d.UMin = maxU32(d.UMin, s.UMin)
	d.UMin = maxU32(d.UMin, uint32(d.Var.Value))
	d.UMax = uint32(d.Var.Value | d.Var.Mask)
	if negative {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	} else {
		d.SMin = int32(d.UMin)
		d.SMax = int32(d.UMax)
	}
}

func scalarXor32(d *reg32, s reg32) {
	nonNegative := d.SMin >= 0 && s.SMin >= 0
	d.Var = tnum.Xor(d.Var, s.Var).Cast(4)
	d.UMin = uint32(d.Var.Value)
	d.UMax = uint32(d.Var.Value | d.Var.Mask)
	if nonNegative {
		d.SMin = int32(d.UMin)
		d.SMax = int32(d.UMax)
	} else {
		d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	}
}

func scalarLsh32(d *reg32, s reg32) bool {
	if s.UMax >= 32 {
		return false
	}
	if s.isConst() {
		sh := uint(s.Var.Value)
		d.Var = d.Var.Lsh(sh).Cast(4)
		if d.UMax <= math.MaxUint32>>sh {
			d.UMin <<= sh
			d.UMax <<= sh
		} else {
			d.UMin, d.UMax = 0, math.MaxUint32
		}
	} else {
		d.Var = tnum.Unknown.Cast(4)
		if d.UMax <= math.MaxUint32>>uint(s.UMax) {
			d.UMin <<= uint(s.UMin)
			d.UMax <<= uint(s.UMax)
		} else {
			d.UMin, d.UMax = 0, math.MaxUint32
		}
	}
	d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	return true
}

func scalarRsh32(d *reg32, s reg32) bool {
	if s.UMax >= 32 {
		return false
	}
	if s.isConst() {
		sh := uint(s.Var.Value)
		d.Var = d.Var.Rsh(sh)
		d.UMin >>= sh
		d.UMax >>= sh
	} else {
		d.Var = tnum.Unknown.Cast(4)
		d.UMin >>= uint(s.UMax)
		d.UMax >>= uint(s.UMin)
	}
	d.SMin, d.SMax = math.MinInt32, math.MaxInt32
	return true
}

func scalarArsh32(d *reg32, s reg32) bool {
	if !s.isConst() || s.Var.Value >= 32 {
		return false
	}
	sh := uint(s.Var.Value)
	d.Var = d.Var.Arsh(sh, 32)
	d.SMin >>= sh
	d.SMax >>= sh
	d.UMin, d.UMax = 0, math.MaxUint32
	return true
}

// aluScalar applies "dst op= src" for two scalar operands and returns
// whether the op is supported. dst is updated in place (including sync).
func aluScalar(dst *RegState, src *RegState, op uint8, is32 bool) {
	// Constant folding fast path.
	if dst.IsConst() && src.IsConst() {
		if v, ok := foldConst(dst.ConstVal(), src.ConstVal(), op, is32); ok {
			dst.setConst(v)
			return
		}
	}
	if !is32 {
		switch op {
		case ebpf.AluADD:
			scalarAdd(dst, src)
		case ebpf.AluSUB:
			scalarSub(dst, src)
		case ebpf.AluMUL:
			scalarMul(dst, src)
		case ebpf.AluAND:
			scalarAnd(dst, src)
		case ebpf.AluOR:
			scalarOr(dst, src)
		case ebpf.AluXOR:
			scalarXor(dst, src)
		case ebpf.AluLSH:
			scalarLsh(dst, src)
		case ebpf.AluRSH:
			scalarRsh(dst, src)
		case ebpf.AluARSH:
			scalarArsh(dst, src)
		case ebpf.AluDIV, ebpf.AluMOD:
			dst.markUnknown()
		default:
			dst.markUnknown()
		}
		dst.ID = 0
		dst.sync()
		return
	}
	d, s := dst.view32(), src.view32()
	ok := true
	switch op {
	case ebpf.AluADD:
		scalarAdd32(&d, s)
	case ebpf.AluSUB:
		scalarSub32(&d, s)
	case ebpf.AluMUL:
		scalarMul32(&d, s)
	case ebpf.AluAND:
		scalarAnd32(&d, s)
	case ebpf.AluOR:
		scalarOr32(&d, s)
	case ebpf.AluXOR:
		scalarXor32(&d, s)
	case ebpf.AluLSH:
		ok = scalarLsh32(&d, s)
	case ebpf.AluRSH:
		ok = scalarRsh32(&d, s)
	case ebpf.AluARSH:
		ok = scalarArsh32(&d, s)
	default:
		ok = false
	}
	dst.ID = 0
	if !ok {
		// Unsupported 32-bit op: the low word becomes unknown, the top is
		// zeroed as for every ALU32 result.
		u := unknownScalar()
		u.Var = tnum.Unknown.Cast(4)
		u.UMax = math.MaxUint32
		u.SMin, u.SMax = 0, math.MaxUint32
		*dst = u
		dst.sync()
		return
	}
	dst.store32(d)
}

// foldConst computes op on two known constants with eBPF semantics.
func foldConst(a, b uint64, op uint8, is32 bool) (uint64, bool) {
	if is32 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
	}
	var out uint64
	switch op {
	case ebpf.AluADD:
		out = a + b
	case ebpf.AluSUB:
		out = a - b
	case ebpf.AluMUL:
		out = a * b
	case ebpf.AluDIV:
		if is32 {
			if uint32(b) == 0 {
				out = 0
			} else {
				out = uint64(uint32(a) / uint32(b))
			}
		} else if b == 0 {
			out = 0
		} else {
			out = a / b
		}
	case ebpf.AluMOD:
		if is32 {
			if uint32(b) == 0 {
				out = a
			} else {
				out = uint64(uint32(a) % uint32(b))
			}
		} else if b == 0 {
			out = a
		} else {
			out = a % b
		}
	case ebpf.AluAND:
		out = a & b
	case ebpf.AluOR:
		out = a | b
	case ebpf.AluXOR:
		out = a ^ b
	case ebpf.AluLSH:
		if is32 {
			out = uint64(uint32(a) << (b & 31))
		} else {
			out = a << (b & 63)
		}
	case ebpf.AluRSH:
		if is32 {
			out = uint64(uint32(a) >> (b & 31))
		} else {
			out = a >> (b & 63)
		}
	case ebpf.AluARSH:
		if is32 {
			out = uint64(uint32(int32(uint32(a)) >> (b & 31)))
		} else {
			out = uint64(int64(a) >> (b & 63))
		}
	default:
		return 0, false
	}
	if is32 {
		out = uint64(uint32(out))
	}
	return out, true
}
