// Package tnum implements the tristate-number abstract domain used by the
// eBPF verifier to track per-bit knowledge about register values.
//
// A tristate number (tnum) represents a set of 64-bit values. Each bit is
// either known-0, known-1, or unknown. The representation is a pair
// (Value, Mask): bits set in Mask are unknown; for bits clear in Mask, the
// corresponding bit of Value gives the known value. The invariant
// Value & Mask == 0 holds for every well-formed tnum.
//
// The transfer functions follow the Linux kernel's kernel/bpf/tnum.c,
// including the refined multiplication of Vishwanathan et al. (CGO'22),
// which is upstream in the baseline verifier the paper compares against.
package tnum

import (
	"fmt"
	"math/bits"
)

// Tnum is a tristate number. The zero value is the constant 0.
type Tnum struct {
	Value uint64 // known bit values (only meaningful where Mask is 0)
	Mask  uint64 // set bits are unknown
}

// Unknown is the tnum representing all 64-bit values.
var Unknown = Tnum{Value: 0, Mask: ^uint64(0)}

// Const returns the tnum representing exactly v.
func Const(v uint64) Tnum { return Tnum{Value: v} }

// Range returns a tnum containing every value in [min, max].
// The result is the tightest tnum of the form prefix+unknown-suffix.
func Range(min, max uint64) Tnum {
	chi := min ^ max
	b := fls64(chi)
	if b > 63 {
		// Special case: the range spans the sign bit boundary entirely.
		return Unknown
	}
	delta := (uint64(1) << b) - 1
	return Tnum{Value: min &^ delta, Mask: delta}
}

// fls64 returns the position (1-based) of the most significant set bit,
// or 0 if x is 0.
func fls64(x uint64) uint {
	return uint(64 - bits.LeadingZeros64(x))
}

// IsConst reports whether t represents exactly one value.
func (t Tnum) IsConst() bool { return t.Mask == 0 }

// IsUnknown reports whether t represents all values.
func (t Tnum) IsUnknown() bool { return t.Mask == ^uint64(0) }

// WellFormed reports whether the representation invariant holds.
func (t Tnum) WellFormed() bool { return t.Value&t.Mask == 0 }

// Min returns the smallest unsigned value t may take.
func (t Tnum) Min() uint64 { return t.Value }

// Max returns the largest unsigned value t may take.
func (t Tnum) Max() uint64 { return t.Value | t.Mask }

// Contains reports whether concrete value v is a member of t.
func (t Tnum) Contains(v uint64) bool { return v&^t.Mask == t.Value }

// Eq reports whether two tnums are the identical abstract value.
func (t Tnum) Eq(o Tnum) bool { return t == o }

// Lsh returns t logically shifted left by shift bits.
func (t Tnum) Lsh(shift uint) Tnum {
	if shift >= 64 {
		return Const(0)
	}
	return Tnum{Value: t.Value << shift, Mask: t.Mask << shift}
}

// Rsh returns t logically shifted right by shift bits.
func (t Tnum) Rsh(shift uint) Tnum {
	if shift >= 64 {
		return Const(0)
	}
	return Tnum{Value: t.Value >> shift, Mask: t.Mask >> shift}
}

// Arsh returns t arithmetically shifted right by shift bits, treating the
// tnum as insnBits wide (32 or 64). Mirrors the kernel's tnum_arshift.
func (t Tnum) Arsh(shift uint, insnBits uint8) Tnum {
	switch insnBits {
	case 32:
		if shift >= 32 {
			shift = 31
		}
		v := uint64(uint32(int32(uint32(t.Value)) >> shift))
		m := uint64(uint32(int32(uint32(t.Mask)) >> shift))
		// Sign-extended mask bits are unknown, so they must be cleared
		// from value to keep the invariant.
		return Tnum{Value: v &^ m, Mask: m}
	default:
		if shift >= 64 {
			shift = 63
		}
		v := uint64(int64(t.Value) >> shift)
		m := uint64(int64(t.Mask) >> shift)
		return Tnum{Value: v &^ m, Mask: m}
	}
}

// Add returns the tnum of the sums of members of a and b.
func Add(a, b Tnum) Tnum {
	sm := a.Mask + b.Mask
	sv := a.Value + b.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return Tnum{Value: sv &^ mu, Mask: mu}
}

// Sub returns the tnum of the differences of members of a and b.
func Sub(a, b Tnum) Tnum {
	dv := a.Value - b.Value
	alpha := dv + a.Mask
	beta := dv - b.Mask
	chi := alpha ^ beta
	mu := chi | a.Mask | b.Mask
	return Tnum{Value: dv &^ mu, Mask: mu}
}

// And returns the tnum of bitwise-ANDs of members of a and b.
func And(a, b Tnum) Tnum {
	alpha := a.Value | a.Mask
	beta := b.Value | b.Mask
	v := a.Value & b.Value
	return Tnum{Value: v, Mask: alpha & beta &^ v}
}

// Or returns the tnum of bitwise-ORs of members of a and b.
func Or(a, b Tnum) Tnum {
	v := a.Value | b.Value
	mu := a.Mask | b.Mask
	return Tnum{Value: v, Mask: mu &^ v}
}

// Xor returns the tnum of bitwise-XORs of members of a and b.
func Xor(a, b Tnum) Tnum {
	v := a.Value ^ b.Value
	mu := a.Mask | b.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// Mul returns the tnum of products of members of a and b, using the
// precise half-multiply decomposition upstreamed from Vishwanathan et al.
func Mul(a, b Tnum) Tnum {
	accV := a.Value * b.Value
	accM := Const(0)
	for a.Value != 0 || a.Mask != 0 {
		if a.Value&1 != 0 {
			accM = Add(accM, Tnum{Value: 0, Mask: b.Mask})
		} else if a.Mask&1 != 0 {
			accM = Add(accM, Tnum{Value: 0, Mask: b.Value | b.Mask})
		}
		a = a.Rsh(1)
		b = b.Lsh(1)
	}
	return Add(Const(accV), accM)
}

// Intersect returns a tnum whose members are in both a and b. The caller
// must know the intersection is non-empty (e.g. both contain a common
// runtime value); otherwise the result is meaningless, matching the
// kernel's contract for tnum_intersect.
func Intersect(a, b Tnum) Tnum {
	v := a.Value | b.Value
	mu := a.Mask & b.Mask
	return Tnum{Value: v &^ mu, Mask: mu}
}

// In reports whether every member of b is a member of a.
func In(a, b Tnum) bool {
	if b.Mask&^a.Mask != 0 {
		return false
	}
	return b.Value&^a.Mask == a.Value
}

// Cast truncates t to size bytes (1, 2, 4 or 8), zero-extending.
func (t Tnum) Cast(size uint) Tnum {
	if size >= 8 {
		return t
	}
	m := (uint64(1) << (size * 8)) - 1
	return Tnum{Value: t.Value & m, Mask: t.Mask & m}
}

// Subreg returns the tnum describing the low 32 bits of t.
func (t Tnum) Subreg() Tnum { return t.Cast(4) }

// ClearSubreg returns t with its low 32 bits forced to known-zero.
func (t Tnum) ClearSubreg() Tnum {
	return t.Rsh(32).Lsh(32)
}

// WithSubreg returns t with its low 32 bits replaced by subreg's low 32.
func (t Tnum) WithSubreg(subreg Tnum) Tnum {
	hi := t.ClearSubreg()
	lo := subreg.Subreg()
	return Tnum{Value: hi.Value | lo.Value, Mask: hi.Mask | lo.Mask}
}

// String renders the tnum as the kernel does: a constant prints as hex,
// otherwise as (value; mask).
func (t Tnum) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%#x", t.Value)
	}
	if t.IsUnknown() {
		return "unknown"
	}
	return fmt.Sprintf("(%#x; %#x)", t.Value, t.Mask)
}
