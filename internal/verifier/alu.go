package verifier

import (
	"math"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// markRangesUnknown32 widens the 32-bit interval domains.
func (r *RegState) markRangesUnknown32() {
	r.U32Min, r.U32Max = 0, math.MaxUint32
	r.S32Min, r.S32Max = math.MinInt32, math.MaxInt32
}

func addOverflows[S signed](a, b S) bool {
	s := a + b
	return (b > 0 && s < a) || (b < 0 && s > a)
}

func subOverflows[S signed](a, b S) bool {
	s := a - b
	return (b < 0 && s < a) || (b > 0 && s > a)
}

// alu applies "d op= s" at the interval's width: the kernel's
// scalar{,32}_min_max_* with the matching tnum op. It reports false when
// the width has no transfer function for op (division, modulo, a shift
// by a possibly out-of-range amount, an arithmetic shift by a
// non-constant), whose result the caller makes unknown. A 32-bit
// result's tnum may carry into the high word: set32 keeps only its low
// word, and the bounds read it through U.
func (d *interval[U, S]) alu(op uint8, s *interval[U, S]) bool {
	switch op {
	case ebpf.AluADD:
		if addOverflows(d.SMin, s.SMin) || addOverflows(d.SMax, s.SMax) {
			d.unknownS()
		} else {
			d.SMin += s.SMin
			d.SMax += s.SMax
		}
		if d.UMin+s.UMin < d.UMin || d.UMax+s.UMax < d.UMax {
			d.unknownU()
		} else {
			d.UMin += s.UMin
			d.UMax += s.UMax
		}
		d.Var = tnum.Add(d.Var, s.Var)
	case ebpf.AluSUB:
		if subOverflows(d.SMin, s.SMax) || subOverflows(d.SMax, s.SMin) {
			d.unknownS()
		} else {
			d.SMin -= s.SMax
			d.SMax -= s.SMin
		}
		if d.UMin < s.UMax {
			d.unknownU()
		} else {
			d.UMin -= s.UMax
			d.UMax -= s.UMin
		}
		d.Var = tnum.Sub(d.Var, s.Var)
	case ebpf.AluMUL:
		d.Var = tnum.Mul(d.Var, s.Var)
		half := ^U(0) >> (d.bits() / 2)
		if d.SMin < 0 || s.SMin < 0 || d.UMax > half || s.UMax > half {
			d.unknownU()
			d.unknownS()
		} else {
			d.UMin *= s.UMin
			d.UMax *= s.UMax
			d.signedFromUnsigned(d.UMax <= ^U(0)>>1)
		}
	case ebpf.AluAND:
		nonNegative := d.SMin >= 0 && s.SMin >= 0
		d.Var = tnum.And(d.Var, s.Var)
		d.UMin = U(d.Var.Value)
		d.UMax = min(d.UMax, s.UMax, U(d.Var.Max()))
		d.signedFromUnsigned(nonNegative)
	case ebpf.AluOR:
		nonNegative := d.SMin >= 0 && s.SMin >= 0
		d.Var = tnum.Or(d.Var, s.Var)
		d.UMin = max(d.UMin, s.UMin, U(d.Var.Value))
		d.UMax = U(d.Var.Max())
		d.signedFromUnsigned(nonNegative)
	case ebpf.AluXOR:
		nonNegative := d.SMin >= 0 && s.SMin >= 0
		d.Var = tnum.Xor(d.Var, s.Var)
		d.UMin, d.UMax = U(d.Var.Value), U(d.Var.Max())
		d.signedFromUnsigned(nonNegative)
	case ebpf.AluLSH:
		if s.UMax >= U(d.bits()) {
			return false
		}
		if s.Var.IsConst() {
			d.Var = d.Var.Lsh(uint(s.Var.Value))
		} else {
			d.Var = tnum.Unknown
		}
		if d.UMax <= ^U(0)>>uint(s.UMax) {
			d.UMin <<= uint(s.UMin)
			d.UMax <<= uint(s.UMax)
		} else {
			d.unknownU()
		}
		d.unknownS()
	case ebpf.AluRSH:
		if s.UMax >= U(d.bits()) {
			return false
		}
		if s.Var.IsConst() {
			d.Var = d.Var.Rsh(uint(s.Var.Value))
		} else {
			d.Var = tnum.Unknown
		}
		d.UMin >>= uint(s.UMax)
		d.UMax >>= uint(s.UMin)
		// A logical right shift always produces a non-negative value,
		// which sync derives from the unsigned range.
		d.unknownS()
	case ebpf.AluARSH:
		if !s.Var.IsConst() || s.Var.Value >= uint64(d.bits()) {
			return false
		}
		sh := uint(s.Var.Value)
		d.Var = d.Var.Arsh(sh, uint8(d.bits()))
		d.SMin >>= sh
		d.SMax >>= sh
		d.unknownU()
	default:
		return false
	}
	return true
}

// alu64 applies a 64-bit "r op= src" to r's tnum and bounds, leaving the
// low word's bounds for sync to derive. An op without a transfer
// function makes r an unknown scalar.
func (r *RegState) alu64(op uint8, src *RegState) {
	d, s := r.view64(), src.view64()
	if !d.alu(op, &s) {
		r.markUnknown()
		return
	}
	r.set64(d)
	r.markRangesUnknown32()
	r.sync()
}

// aluScalar applies "dst op= src" for two scalar operands, in place
// (including sync). Both operands are read into views before dst is
// written, so src may be dst.
func aluScalar(dst *RegState, src *RegState, op uint8, is32 bool) {
	// Constant folding fast path.
	if dst.IsConst() && src.IsConst() {
		if v, ok := foldConst(dst.ConstVal(), src.ConstVal(), op, is32); ok {
			dst.setConst(v)
			return
		}
	}
	dst.ID = 0
	if !is32 {
		dst.alu64(op, src)
		return
	}
	d, s := dst.view32(), src.view32()
	if !d.alu(op, &s) {
		// The low word becomes unknown; the top is zeroed as for every
		// ALU32 result.
		dst.markUnknown()
	} else {
		dst.set32(d)
	}
	dst.zext32()
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
