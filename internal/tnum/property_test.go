package tnum

// Exhaustive model checks of the tristate-number transfer functions: for
// every well-formed k-bit tnum pair and every concrete value pair they
// admit, the abstract result must admit the concrete result
// (over-approximation), stay well-formed, and — where the operation has
// an exact interval meaning — keep Min/Max sound.
//
// A k-bit tnum assigns each bit one of three states (0 / 1 / unknown),
// so there are 3^k well-formed k-bit tnums. The default sweep uses k=6
// (729 tnums; ~0.5M pairs per binary op), which finishes quickly even
// under -race. CI additionally runs the full 8-bit model (6561 tnums,
// ~43M pairs per op) without the race detector via -tnum.exhaustive8.

import (
	"flag"
	"testing"
)

var exhaustive8 = flag.Bool("tnum.exhaustive8", false,
	"model-check binary ops over all 8-bit tnums (slow; CI runs it without -race)")

// modelBits returns the sweep width for binary-op model checks.
func modelBits(t *testing.T) uint {
	if *exhaustive8 {
		return 8
	}
	if testing.Short() {
		return 4
	}
	return 6
}

// enumTnums lists every well-formed tnum over the low `bits` bits.
func enumTnums(bits uint) []Tnum {
	limit := uint64(1) << bits
	var out []Tnum
	for mask := uint64(0); mask < limit; mask++ {
		for value := uint64(0); value < limit; value++ {
			if value&mask == 0 {
				out = append(out, Tnum{Value: value, Mask: mask})
			}
		}
	}
	return out
}

// concretizations lists every concrete value a (narrow) tnum admits.
func concretizations(t Tnum, bits uint) []uint64 {
	var out []uint64
	limit := uint64(1) << bits
	for v := uint64(0); v < limit; v++ {
		if t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// binOp pairs an abstract transfer function with its concrete meaning.
type binOp struct {
	name     string
	abstract func(a, b Tnum) Tnum
	concrete func(x, y uint64) uint64
}

func binOps() []binOp {
	return []binOp{
		{"Add", Add, func(x, y uint64) uint64 { return x + y }},
		{"Sub", Sub, func(x, y uint64) uint64 { return x - y }},
		{"Mul", Mul, func(x, y uint64) uint64 { return x * y }},
		{"And", And, func(x, y uint64) uint64 { return x & y }},
		{"Or", Or, func(x, y uint64) uint64 { return x | y }},
		{"Xor", Xor, func(x, y uint64) uint64 { return x ^ y }},
	}
}

// TestBinaryOpsOverApproximate: the core soundness property. Every
// concrete result of op(x, y) with x ∈ γ(a), y ∈ γ(b) must be contained
// in op#(a, b), and op#(a, b) must stay well-formed.
func TestBinaryOpsOverApproximate(t *testing.T) {
	bits := modelBits(t)
	tnums := enumTnums(bits)
	concs := make([][]uint64, len(tnums))
	for i, tn := range tnums {
		concs[i] = concretizations(tn, bits)
	}
	for _, op := range binOps() {
		op := op
		t.Run(op.name, func(t *testing.T) {
			for i, a := range tnums {
				for j, b := range tnums {
					r := op.abstract(a, b)
					if !r.WellFormed() {
						t.Fatalf("%s(%v, %v) = %v not well-formed", op.name, a, b, r)
					}
					for _, x := range concs[i] {
						for _, y := range concs[j] {
							if c := op.concrete(x, y); !r.Contains(c) {
								t.Fatalf("%s(%v, %v) = %v does not contain %s(%#x, %#x) = %#x",
									op.name, a, b, r, op.name, x, y, c)
							}
						}
					}
				}
			}
		})
	}
}

// brokenAdd is Add with the carry propagation dropped — the classic
// transfer-function bug this harness must be able to catch.
func brokenAdd(a, b Tnum) Tnum {
	return Tnum{Value: a.Value + b.Value, Mask: a.Mask | b.Mask}
}

// TestModelCheckCatchesBrokenAdd: the mutation test for the model
// checker itself. Dropping the carry from Add must produce either a
// containment or a well-formedness counterexample within the sweep;
// if it does not, the property test is too weak to trust.
func TestModelCheckCatchesBrokenAdd(t *testing.T) {
	bits := modelBits(t)
	tnums := enumTnums(bits)
	for i, a := range tnums {
		for j, b := range tnums {
			r := brokenAdd(a, b)
			if !r.WellFormed() {
				t.Logf("caught: brokenAdd(%v, %v) = %v not well-formed", a, b, r)
				return
			}
			for _, x := range concretizations(tnums[i], bits) {
				for _, y := range concretizations(tnums[j], bits) {
					if !r.Contains(x + y) {
						t.Logf("caught: brokenAdd(%v, %v) misses %#x + %#x", a, b, x, y)
						return
					}
				}
			}
		}
	}
	t.Fatal("model check failed to catch the broken Add transfer function")
}

// TestShiftsOverApproximate: Lsh/Rsh by every in-range constant amount.
// The sweep stays on narrow tnums; full-width semantics are the same
// bit-shuffling, and the narrow model keeps the product space tractable.
func TestShiftsOverApproximate(t *testing.T) {
	bits := modelBits(t)
	tnums := enumTnums(bits)
	for shift := uint(0); shift < bits+2; shift++ {
		for _, a := range tnums {
			for _, fn := range []struct {
				name     string
				abstract Tnum
				concrete func(uint64) uint64
			}{
				{"Lsh", a.Lsh(shift), func(x uint64) uint64 { return x << shift }},
				{"Rsh", a.Rsh(shift), func(x uint64) uint64 { return x >> shift }},
			} {
				if !fn.abstract.WellFormed() {
					t.Fatalf("%s(%v, %d) = %v not well-formed", fn.name, a, shift, fn.abstract)
				}
				for _, x := range concretizations(a, bits) {
					if c := fn.concrete(x); !fn.abstract.Contains(c) {
						t.Fatalf("%s(%v, %d) = %v does not contain %#x", fn.name, a, shift, fn.abstract, c)
					}
				}
			}
		}
	}
}

// TestArshOverApproximate: arithmetic right shift replicates the sign
// bit, so the narrow tnums are planted at the top of the word (<<56 for
// the 64-bit form, <<24 within the low word for the 32-bit form) to
// exercise it.
func TestArshOverApproximate(t *testing.T) {
	bits := modelBits(t)
	for _, tn := range enumTnums(bits) {
		concs := concretizations(tn, bits)
		for shift := uint(0); shift < 8; shift++ {
			a64 := tn.Lsh(64 - bits)
			r64 := a64.Arsh(shift, 64)
			if !r64.WellFormed() {
				t.Fatalf("Arsh64(%v, %d) = %v not well-formed", a64, shift, r64)
			}
			a32 := tn.Lsh(32 - bits)
			r32 := a32.Arsh(shift, 32)
			if !r32.WellFormed() {
				t.Fatalf("Arsh32(%v, %d) = %v not well-formed", a32, shift, r32)
			}
			for _, x := range concs {
				c64 := uint64(int64(x<<(64-bits)) >> shift)
				if !r64.Contains(c64) {
					t.Fatalf("Arsh64(%v, %d) = %v does not contain %#x", a64, shift, r64, c64)
				}
				c32 := uint64(uint32(int32(uint32(x)<<(32-bits)) >> shift))
				if !r32.Contains(c32) {
					t.Fatalf("Arsh32(%v, %d) = %v does not contain %#x", a32, shift, r32, c32)
				}
			}
		}
	}
}

// TestUnaryAndLattice8Bit: the cheap properties run on the full 8-bit
// model unconditionally — Min/Max bracketing, Cast soundness, and the
// Intersect/In lattice relations.
func TestUnaryAndLattice8Bit(t *testing.T) {
	tnums := enumTnums(8)
	for _, a := range tnums {
		concs := concretizations(a, 8)
		for _, x := range concs {
			if x < a.Min() || x > a.Max() {
				t.Fatalf("%v: concretization %#x outside [Min, Max] = [%#x, %#x]", a, x, a.Min(), a.Max())
			}
			if c := a.Cast(4); !c.Contains(x & 0xffffffff) {
				t.Fatalf("Cast4(%v) = %v does not contain %#x", a, c, x)
			}
			if c := a.Cast(1); !c.Contains(x & 0xff) {
				t.Fatalf("Cast1(%v) = %v does not contain %#x", a, c, x)
			}
		}
	}
	// Lattice relations on a subsample (full 6561² is the -race hot spot).
	step := 17
	for i := 0; i < len(tnums); i += step {
		for j := 0; j < len(tnums); j += step {
			a, b := tnums[i], tnums[j]
			inter := Intersect(a, b)
			for _, x := range concretizations(a, 8) {
				if b.Contains(x) && inter.WellFormed() && !inter.Contains(x) {
					t.Fatalf("Intersect(%v, %v) = %v does not contain common value %#x", a, b, inter, x)
				}
			}
			// In(a, b) is kernel argument order: b ⊆ a.
			if In(a, b) {
				for _, x := range concretizations(b, 8) {
					if !a.Contains(x) {
						t.Fatalf("In(%v, %v) holds but %#x ∈ γ(b) ∉ γ(a)", a, b, x)
					}
				}
			}
		}
	}
}

// TestRangeContainsAll: Range(min, max) must admit every value in the
// interval (it may over-approximate beyond it).
func TestRangeContainsAll(t *testing.T) {
	for min := uint64(0); min < 64; min++ {
		for max := min; max < 64; max++ {
			r := Range(min, max)
			if !r.WellFormed() {
				t.Fatalf("Range(%d, %d) = %v not well-formed", min, max, r)
			}
			for v := min; v <= max; v++ {
				if !r.Contains(v) {
					t.Fatalf("Range(%d, %d) = %v does not contain %d", min, max, r, v)
				}
			}
		}
	}
}
