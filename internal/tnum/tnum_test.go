package tnum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sample returns an arbitrary concrete member of t derived from seed.
func sample(t Tnum, seed uint64) uint64 {
	return t.Value | (seed & t.Mask)
}

func TestConst(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, ^uint64(0), 1 << 63} {
		c := Const(v)
		if !c.IsConst() || c.Value != v {
			t.Errorf("Const(%#x) = %v", v, c)
		}
		if !c.Contains(v) {
			t.Errorf("Const(%#x) does not contain itself", v)
		}
		if c.Contains(v + 1) {
			t.Errorf("Const(%#x) contains %#x", v, v+1)
		}
	}
}

func TestRangeContainsEndpoints(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {0, 15}, {0, 30}, {5, 9}, {16, 31}, {0, ^uint64(0)},
		{1 << 32, 1<<32 + 100}, {^uint64(0) - 3, ^uint64(0)},
	}
	for _, c := range cases {
		r := Range(c[0], c[1])
		if !r.WellFormed() {
			t.Errorf("Range(%#x,%#x) malformed: %v", c[0], c[1], r)
		}
		if !r.Contains(c[0]) || !r.Contains(c[1]) {
			t.Errorf("Range(%#x,%#x)=%v misses an endpoint", c[0], c[1], r)
		}
		// Every value in [min,max] must be contained.
		if c[1]-c[0] < 1000 {
			for v := c[0]; ; v++ {
				if !r.Contains(v) {
					t.Errorf("Range(%#x,%#x)=%v misses %#x", c[0], c[1], r, v)
					break
				}
				if v == c[1] {
					break
				}
			}
		}
	}
}

func TestRangeProperty(t *testing.T) {
	f := func(a, b, pick uint64) bool {
		min, max := a, b
		if min > max {
			min, max = max, min
		}
		r := Range(min, max)
		if !r.WellFormed() {
			return false
		}
		// Any value within [min,max] is contained.
		if max > min {
			v := min + pick%(max-min+1)
			if !r.Contains(v) {
				return false
			}
		}
		return r.Contains(min) && r.Contains(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// binProp checks soundness of a binary transfer function against the
// concrete operation: for members x∈a, y∈b, op(x,y) ∈ absOp(a,b).
func binProp(t *testing.T, name string, abs func(Tnum, Tnum) Tnum, conc func(uint64, uint64) uint64) {
	t.Helper()
	f := func(av, am, bv, bm, s1, s2 uint64) bool {
		a := Tnum{Value: av &^ am, Mask: am}
		b := Tnum{Value: bv &^ bm, Mask: bm}
		r := abs(a, b)
		if !r.WellFormed() {
			return false
		}
		x := sample(a, s1)
		y := sample(b, s2)
		return r.Contains(conc(x, y))
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestAddSound(t *testing.T) {
	binProp(t, "add", Add, func(x, y uint64) uint64 { return x + y })
}

func TestSubSound(t *testing.T) {
	binProp(t, "sub", Sub, func(x, y uint64) uint64 { return x - y })
}

func TestAndSound(t *testing.T) {
	binProp(t, "and", And, func(x, y uint64) uint64 { return x & y })
}

func TestOrSound(t *testing.T) {
	binProp(t, "or", Or, func(x, y uint64) uint64 { return x | y })
}

func TestXorSound(t *testing.T) {
	binProp(t, "xor", Xor, func(x, y uint64) uint64 { return x ^ y })
}

func TestMulSound(t *testing.T) {
	binProp(t, "mul", Mul, func(x, y uint64) uint64 { return x * y })
}

func TestMulExhaustiveSmall(t *testing.T) {
	// Exhaustive over 4-bit tnums: every well-formed (v,m) pair with v,m < 16.
	for av := uint64(0); av < 16; av++ {
		for am := uint64(0); am < 16; am++ {
			if av&am != 0 {
				continue
			}
			for bv := uint64(0); bv < 16; bv++ {
				for bm := uint64(0); bm < 16; bm++ {
					if bv&bm != 0 {
						continue
					}
					a := Tnum{Value: av, Mask: am}
					b := Tnum{Value: bv, Mask: bm}
					r := Mul(a, b)
					for xa := uint64(0); xa < 16; xa++ {
						if !a.Contains(xa) {
							continue
						}
						for xb := uint64(0); xb < 16; xb++ {
							if !b.Contains(xb) {
								continue
							}
							if !r.Contains(xa * xb) {
								t.Fatalf("Mul(%v,%v)=%v misses %d*%d", a, b, r, xa, xb)
							}
						}
					}
				}
			}
		}
	}
}

func TestShiftsSound(t *testing.T) {
	f := func(av, am, seed uint64, shift uint8) bool {
		a := Tnum{Value: av &^ am, Mask: am}
		sh := uint(shift % 64)
		x := sample(a, seed)
		if !a.Lsh(sh).Contains(x << sh) {
			return false
		}
		if !a.Rsh(sh).Contains(x >> sh) {
			return false
		}
		if !a.Arsh(sh, 64).Contains(uint64(int64(x) >> sh)) {
			return false
		}
		sh32 := uint(shift % 32)
		want := uint64(uint32(int32(uint32(x)) >> sh32))
		got := a.Cast(4).Arsh(sh32, 32)
		return got.Contains(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntersect(t *testing.T) {
	a := Range(0, 15)
	b := Tnum{Value: 0, Mask: ^uint64(1)} // even... actually LSB known 0
	r := Intersect(a, b)
	if !r.WellFormed() {
		t.Fatalf("intersect malformed: %v", r)
	}
	for v := uint64(0); v < 16; v += 2 {
		if !r.Contains(v) {
			t.Errorf("intersect misses %d", v)
		}
	}
	if r.Contains(1) {
		t.Errorf("intersect should exclude odd values")
	}
}

func TestIn(t *testing.T) {
	a := Range(0, 31)
	b := Range(0, 15)
	if !In(a, b) {
		t.Errorf("Range(0,15) should be in Range(0,31)")
	}
	if In(b, a) {
		t.Errorf("Range(0,31) should not be in Range(0,15)")
	}
	if !In(a, a) {
		t.Errorf("a should be in itself")
	}
	if !In(Unknown, a) {
		t.Errorf("everything is in Unknown")
	}
}

func TestInImpliesSubset(t *testing.T) {
	f := func(av, am, bv, bm, s uint64) bool {
		a := Tnum{Value: av &^ am, Mask: am}
		b := Tnum{Value: bv &^ bm, Mask: bm}
		if !In(a, b) {
			return true
		}
		return a.Contains(sample(b, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCastAndSubreg(t *testing.T) {
	a := Tnum{Value: 0xdead0000_1000, Mask: 0x0000ffff}
	c := a.Cast(4)
	if c.Value != 0x1000 || c.Mask != 0xffff {
		t.Errorf("Cast(4) = %v", c)
	}
	if got := a.Subreg(); got != c {
		t.Errorf("Subreg = %v want %v", got, c)
	}
	cleared := a.ClearSubreg()
	if cleared.Value != 0xdead00000000 || cleared.Mask != 0 {
		t.Errorf("ClearSubreg = %v", cleared)
	}
	w := a.WithSubreg(Const(0x77))
	if w.Value != 0xdead00000077 || w.Mask != 0 {
		t.Errorf("WithSubreg = %v", w)
	}
}

func TestPaperListing1(t *testing.T) {
	// r2 &= 0xf : range [0,15]; r2 <<= 1 : tnum knows LSB is 0.
	r2 := And(Unknown, Const(0xf))
	if r2.Min() != 0 || r2.Max() != 15 {
		t.Fatalf("after and: %v", r2)
	}
	r2 = r2.Lsh(1)
	if r2.Min() != 0 || r2.Max() != 30 {
		t.Fatalf("after shl: %v", r2)
	}
	// The tnum preserves that bit 0 is known-zero: odd values excluded.
	if r2.Contains(1) || r2.Contains(29) {
		t.Errorf("tnum should know LSB is 0: %v", r2)
	}
	if !r2.Contains(30) || !r2.Contains(0) {
		t.Errorf("tnum must contain even values: %v", r2)
	}
}

func TestString(t *testing.T) {
	if got := Const(0x2a).String(); got != "0x2a" {
		t.Errorf("String = %q", got)
	}
	if got := Unknown.String(); got != "unknown" {
		t.Errorf("String = %q", got)
	}
	tn := Tnum{Value: 8, Mask: 7}
	if got := tn.String(); got != "(0x8; 0x7)" {
		t.Errorf("String = %q", got)
	}
}

func TestRangeRandomTightness(t *testing.T) {
	// Range must contain the whole interval; spot-check it isn't absurdly
	// loose: its span is at most 2x the next power of two of the interval.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		lo := rng.Uint64() >> 1
		hi := lo + uint64(rng.Intn(1<<20))
		r := Range(lo, hi)
		for j := 0; j < 16; j++ {
			v := lo + rng.Uint64()%(hi-lo+1)
			if !r.Contains(v) {
				t.Fatalf("Range(%#x,%#x) misses %#x", lo, hi, v)
			}
		}
	}
}

// exhaustive4 checks a binary transfer function exhaustively over every
// well-formed 4-bit tnum pair and every concrete member pair.
func exhaustive4(t *testing.T, name string, abs func(Tnum, Tnum) Tnum, conc func(uint64, uint64) uint64) {
	t.Helper()
	for av := uint64(0); av < 16; av++ {
		for am := uint64(0); am < 16; am++ {
			if av&am != 0 {
				continue
			}
			a := Tnum{Value: av, Mask: am}
			for bv := uint64(0); bv < 16; bv++ {
				for bm := uint64(0); bm < 16; bm++ {
					if bv&bm != 0 {
						continue
					}
					b := Tnum{Value: bv, Mask: bm}
					r := abs(a, b)
					if !r.WellFormed() {
						t.Fatalf("%s(%v,%v) malformed: %v", name, a, b, r)
					}
					for xa := uint64(0); xa < 16; xa++ {
						if !a.Contains(xa) {
							continue
						}
						for xb := uint64(0); xb < 16; xb++ {
							if !b.Contains(xb) {
								continue
							}
							if !r.Contains(conc(xa, xb)) {
								t.Fatalf("%s(%v,%v)=%v misses %d op %d", name, a, b, r, xa, xb)
							}
						}
					}
				}
			}
		}
	}
}

func TestExhaustive4BitOps(t *testing.T) {
	// Note: add/sub operate on the full 64-bit space; members of 4-bit
	// tnums are 4-bit values, and their 64-bit op results must still be
	// contained (no truncation happens in tnum space).
	exhaustive4(t, "add", Add, func(x, y uint64) uint64 { return x + y })
	exhaustive4(t, "sub", Sub, func(x, y uint64) uint64 { return x - y })
	exhaustive4(t, "and", And, func(x, y uint64) uint64 { return x & y })
	exhaustive4(t, "or", Or, func(x, y uint64) uint64 { return x | y })
	exhaustive4(t, "xor", Xor, func(x, y uint64) uint64 { return x ^ y })
}

func TestExhaustive4BitShifts(t *testing.T) {
	for sh := uint(0); sh < 8; sh++ {
		for av := uint64(0); av < 16; av++ {
			for am := uint64(0); am < 16; am++ {
				if av&am != 0 {
					continue
				}
				a := Tnum{Value: av, Mask: am}
				l, r := a.Lsh(sh), a.Rsh(sh)
				for x := uint64(0); x < 16; x++ {
					if !a.Contains(x) {
						continue
					}
					if !l.Contains(x << sh) {
						t.Fatalf("Lsh(%v,%d) misses %d", a, sh, x)
					}
					if !r.Contains(x >> sh) {
						t.Fatalf("Rsh(%v,%d) misses %d", a, sh, x)
					}
				}
			}
		}
	}
}

func TestExhaustiveIntersectionSound(t *testing.T) {
	// For every pair with a common member, Intersect contains exactly the
	// common members it must (soundness on non-empty intersections).
	for av := uint64(0); av < 16; av++ {
		for am := uint64(0); am < 16; am++ {
			if av&am != 0 {
				continue
			}
			a := Tnum{Value: av, Mask: am}
			for bv := uint64(0); bv < 16; bv++ {
				for bm := uint64(0); bm < 16; bm++ {
					if bv&bm != 0 {
						continue
					}
					b := Tnum{Value: bv, Mask: bm}
					r := Intersect(a, b)
					for x := uint64(0); x < 16; x++ {
						if a.Contains(x) && b.Contains(x) && !r.Contains(x) {
							t.Fatalf("Intersect(%v,%v)=%v misses common member %d", a, b, r, x)
						}
					}
				}
			}
		}
	}
}
