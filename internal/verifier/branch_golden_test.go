package verifier

// Golden-case tests for the branch bounds logic in branch.go. Each case
// pins the exact five-domain abstraction regSetMinMax must produce for a
// tricky input, mirroring the corner cases the Linux reg_set_min_max has
// historically gotten wrong: signed/unsigned interplay across the sign
// boundary, JMP32 branches that must only inform the low word, JSET
// bit-knowledge, and JNE endpoint nudging. A separate sampling test
// cross-checks every refinement against concrete executions of the
// branch predicate, and checks isBranchTaken never contradicts them.

import (
	"math"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// neg8 is -8 as a raw uint64 (0xfffffffffffffff8).
const neg8 = ^uint64(7)

// bounds flattens the five scalar domains for golden comparison.
type bounds struct {
	Var            tnum.Tnum
	UMin, UMax     uint64
	SMin, SMax     int64
	U32Min, U32Max uint32
	S32Min, S32Max int32
}

func boundsOf(r *RegState) bounds {
	return bounds{r.Var, r.UMin, r.UMax, r.SMin, r.SMax, r.U32Min, r.U32Max, r.S32Min, r.S32Max}
}

// unkBounds is the no-knowledge scalar, the starting point most cases
// tweak a few fields of.
func unkBounds() bounds {
	return bounds{
		Var:  tnum.Unknown,
		UMin: 0, UMax: math.MaxUint64,
		SMin: math.MinInt64, SMax: math.MaxInt64,
		U32Min: 0, U32Max: math.MaxUint32,
		S32Min: math.MinInt32, S32Max: math.MaxInt32,
	}
}

func mkBounds(mod func(*bounds)) bounds {
	b := unkBounds()
	mod(&b)
	return b
}

// uScalar builds a scalar from an unsigned 64-bit interval; sync derives
// the other domains exactly as verifier transfer functions do.
func uScalar(umin, umax uint64) RegState {
	r := unknownScalar()
	r.UMin, r.UMax = umin, umax
	r.sync()
	return r
}

func TestRegSetMinMaxGolden(t *testing.T) {
	cases := []struct {
		name        string
		dst, src    RegState
		op          uint8
		is32, taken bool
		wantDst     bounds
		wantSrc     *bounds // nil: src must come out unchanged
	}{
		{
			// `if r > 7 goto`, taken: only the unsigned floor moves; the
			// range still spans the sign boundary, so no signed knowledge.
			name: "jgt-imm-taken",
			dst:  unknownScalar(), src: constScalar(7), op: ebpf.JmpJGT, taken: true,
			wantDst: mkBounds(func(b *bounds) { b.UMin = 8 }),
		},
		{
			// `if r > 7 goto`, fallthrough (JLE 7): a small unsigned
			// ceiling propagates into every domain and the tnum.
			name: "jgt-imm-fallthrough",
			dst:  unknownScalar(), src: constScalar(7), op: ebpf.JmpJGT, taken: false,
			wantDst: bounds{
				Var:  tnum.Tnum{Value: 0, Mask: 7},
				UMin: 0, UMax: 7, SMin: 0, SMax: 7,
				U32Min: 0, U32Max: 7, S32Min: 0, S32Max: 7,
			},
		},
		{
			// `if r s> -8 goto`, taken: signed floor only; the value may
			// still be any unsigned magnitude (e.g. small positives and
			// huge positives both satisfy s > -8).
			name: "jsgt-neg-imm-taken",
			dst:  unknownScalar(), src: constScalar(neg8), op: ebpf.JmpJSGT, taken: true,
			wantDst: mkBounds(func(b *bounds) { b.SMin = -7 }),
		},
		{
			// `if r s> -8 goto`, fallthrough (JSLE -8): an all-negative
			// range has a fixed sign bit, so deduction derives exact
			// unsigned bounds in the upper half and a known-ones tnum top
			// bit. The low word stays unknown: -8 and -2^40 share no
			// subreg knowledge.
			name: "jsgt-neg-imm-fallthrough",
			dst:  unknownScalar(), src: constScalar(neg8), op: ebpf.JmpJSGT, taken: false,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 1 << 63, Mask: math.MaxInt64}
				b.UMin, b.UMax = 1<<63, neg8
				b.SMax = -8
			}),
		},
		{
			// `if r1 == r2 goto`, taken: both sides collapse onto the
			// interval intersection and share it.
			name: "jeq-reg-intersect",
			dst:  uScalar(0, 100), src: uScalar(50, 200), op: ebpf.JmpJEQ, taken: true,
			wantDst: bounds{
				Var:  tnum.Tnum{Value: 0, Mask: 0x7f},
				UMin: 50, UMax: 100, SMin: 50, SMax: 100,
				U32Min: 50, U32Max: 100, S32Min: 50, S32Max: 100,
			},
			wantSrc: &bounds{
				Var:  tnum.Tnum{Value: 0, Mask: 0x7f},
				UMin: 50, UMax: 100, SMin: 50, SMax: 100,
				U32Min: 50, U32Max: 100, S32Min: 50, S32Max: 100,
			},
		},
		{
			// `if r == 5 goto`, fallthrough (JNE 5) with r ∈ [5, 10]:
			// the excluded constant sits on the range endpoint, so the
			// endpoint nudges in.
			name: "jne-const-endpoint",
			dst:  uScalar(5, 10), src: constScalar(5), op: ebpf.JmpJEQ, taken: false,
			wantDst: bounds{
				Var:  tnum.Tnum{Value: 0, Mask: 0xf},
				UMin: 6, UMax: 10, SMin: 6, SMax: 10,
				U32Min: 6, U32Max: 10, S32Min: 6, S32Max: 10,
			},
		},
		{
			// `if w < 16 goto`, taken: a JMP32 branch informs the low
			// word only. The subreg becomes [0, 15] but the upper 32 bits
			// stay fully unknown — the 64-bit bounds must NOT collapse.
			name: "w-jlt-imm-taken",
			dst:  unknownScalar(), src: constScalar(16), op: ebpf.JmpJLT, is32: true, taken: true,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 0, Mask: 0xffffffff_0000000f}
				b.UMax = 0xffffffff_0000000f
				b.SMax = 0x7fffffff_0000000f
				b.U32Min, b.U32Max = 0, 15
				b.S32Min, b.S32Max = 0, 15
			}),
		},
		{
			// `if w s> -1 goto`, taken: the subreg is non-negative, so
			// its top bit is known zero; the upper word stays unknown.
			name: "w-jsgt-neg1-taken",
			dst:  unknownScalar(), src: constScalar(^uint64(0)), op: ebpf.JmpJSGT, is32: true, taken: true,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 0, Mask: 0xffffffff_7fffffff}
				b.UMax = 0xffffffff_7fffffff
				b.SMax = 0x7fffffff_7fffffff
				b.U32Min, b.U32Max = 0, math.MaxInt32
				b.S32Min, b.S32Max = 0, math.MaxInt32
			}),
		},
		{
			// `if r & 0x40 goto`, taken with a single-bit mask: that bit
			// is known one, which floors both unsigned domains and lifts
			// the signed minima off the lattice bottom by exactly 0x40.
			name: "jset-single-bit-taken",
			dst:  unknownScalar(), src: constScalar(0x40), op: ebpf.JmpJSET, taken: true,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 0x40, Mask: ^uint64(0x40)}
				b.UMin = 0x40
				b.SMin = math.MinInt64 + 0x40
				b.U32Min = 0x40
				b.S32Min = math.MinInt32 + 0x40
			}),
		},
		{
			// `if r & 0xf0 goto`, fallthrough: every bit in the mask is
			// known zero, capping all the maxima.
			name: "jset-fallthrough-clears",
			dst:  unknownScalar(), src: constScalar(0xf0), op: ebpf.JmpJSET, taken: false,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 0, Mask: ^uint64(0xf0)}
				b.UMax = ^uint64(0xf0)
				b.SMax = 0x7fffffff_ffffff0f
				b.U32Max = 0xffffff0f
				b.S32Max = 0x7fffff0f
			}),
		},
		{
			// `if w & 0xff goto`, fallthrough on a JMP32 branch: the low
			// byte of the subreg is known zero; bits 32+ are untouched.
			name: "w-jset-fallthrough-clears",
			dst:  unknownScalar(), src: constScalar(0xff), op: ebpf.JmpJSET, is32: true, taken: false,
			wantDst: mkBounds(func(b *bounds) {
				b.Var = tnum.Tnum{Value: 0, Mask: 0xffffffff_ffffff00}
				b.UMax = 0xffffffff_ffffff00
				b.SMax = 0x7fffffff_ffffff00
				b.U32Max = 0xffffff00
				b.S32Max = 0x7fffff00
			}),
		},
		{
			// `if r & 0x18 goto`, taken with a multi-bit mask: only "at
			// least one of these bits is set" is known, which no single
			// tnum can express — the state must stay unrefined rather
			// than unsoundly claim both bits.
			name: "jset-multibit-taken-no-refine",
			dst:  unknownScalar(), src: constScalar(0x18), op: ebpf.JmpJSET, taken: true,
			wantDst: unkBounds(),
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			d, s := tc.dst, tc.src
			preSrc := boundsOf(&s)
			regSetMinMax(&d, &s, tc.op, tc.taken, tc.is32)
			if !d.wellFormed() {
				t.Fatalf("refined dst not well-formed: %+v", boundsOf(&d))
			}
			if !s.wellFormed() {
				t.Fatalf("refined src not well-formed: %+v", boundsOf(&s))
			}
			if got := boundsOf(&d); got != tc.wantDst {
				t.Errorf("dst bounds:\n got  %+v\n want %+v", got, tc.wantDst)
			}
			wantSrc := preSrc
			if tc.wantSrc != nil {
				wantSrc = *tc.wantSrc
			}
			if got := boundsOf(&s); got != wantSrc {
				t.Errorf("src bounds:\n got  %+v\n want %+v", got, wantSrc)
			}
		})
	}
}

// TestSignedThenUnsignedSequence pins the classic two-branch bounding
// idiom `if r s< 0 goto out; if r > 15 goto out`: the signed check alone
// must not produce unsigned knowledge beyond the positive half, and the
// following unsigned ceiling must tighten every domain to [0, 15].
func TestSignedThenUnsignedSequence(t *testing.T) {
	d := unknownScalar()

	zero := constScalar(0)
	regSetMinMax(&d, &zero, ebpf.JmpJSLT, false, false) // fallthrough of `if r s< 0`
	want := mkBounds(func(b *bounds) {
		b.Var = tnum.Tnum{Value: 0, Mask: math.MaxInt64}
		b.UMax = math.MaxInt64
		b.SMin = 0
	})
	if got := boundsOf(&d); got != want {
		t.Fatalf("after s>=0:\n got  %+v\n want %+v", got, want)
	}

	fifteen := constScalar(15)
	regSetMinMax(&d, &fifteen, ebpf.JmpJGT, false, false) // fallthrough of `if r > 15`
	want = bounds{
		Var:  tnum.Tnum{Value: 0, Mask: 0xf},
		UMin: 0, UMax: 15, SMin: 0, SMax: 15,
		U32Min: 0, U32Max: 15, S32Min: 0, S32Max: 15,
	}
	if got := boundsOf(&d); got != want {
		t.Fatalf("after s>=0 && u<=15:\n got  %+v\n want %+v", got, want)
	}
}

// branchPredicate evaluates the concrete branch condition, written
// directly from the ISA semantics (unsigned/signed compare at the
// selected width) as an independent model of the refinement.
func branchPredicate(op uint8, x, y uint64, is32 bool) bool {
	if is32 {
		x, y = uint64(uint32(x)), uint64(uint32(y))
	}
	sx, sy := int64(x), int64(y)
	if is32 {
		sx, sy = int64(int32(uint32(x))), int64(int32(uint32(y)))
	}
	switch op {
	case ebpf.JmpJEQ:
		return x == y
	case ebpf.JmpJNE:
		return x != y
	case ebpf.JmpJGT:
		return x > y
	case ebpf.JmpJGE:
		return x >= y
	case ebpf.JmpJLT:
		return x < y
	case ebpf.JmpJLE:
		return x <= y
	case ebpf.JmpJSGT:
		return sx > sy
	case ebpf.JmpJSGE:
		return sx >= sy
	case ebpf.JmpJSLT:
		return sx < sy
	case ebpf.JmpJSLE:
		return sx <= sy
	case ebpf.JmpJSET:
		return x&y != 0
	}
	panic("unknown op")
}

// branchSamplePool returns abstract states spanning the shapes branch
// refinement encounters: unknown, constants (including -1), unsigned and
// signed intervals, 32-bit-only knowledge, and tnum bit knowledge.
func branchSamplePool() []RegState {
	sScalar := func(smin, smax int64) RegState {
		r := unknownScalar()
		r.SMin, r.SMax = smin, smax
		r.sync()
		return r
	}
	u32Scalar := func(lo, hi uint32) RegState {
		r := unknownScalar()
		r.U32Min, r.U32Max = lo, hi
		r.sync()
		return r
	}
	bitScalar := func(bit uint64) RegState {
		r := unknownScalar()
		r.Var = tnum.Tnum{Value: bit, Mask: ^bit}
		r.sync()
		return r
	}
	return []RegState{
		unknownScalar(),
		constScalar(0),
		constScalar(5),
		constScalar(^uint64(0)),
		uScalar(0, 7),
		uScalar(4, 12),
		uScalar(100, 1<<40),
		sScalar(-8, 8),
		sScalar(math.MinInt64, -1),
		u32Scalar(3, 300),
		bitScalar(0x40),
	}
}

// branchSampleValues are the concrete candidates checked against each
// pool state; the interesting edges of every pool interval plus the
// sign/width boundaries.
var branchSampleValues = []uint64{
	0, 1, 3, 4, 5, 6, 7, 8, 12, 15, 16, 0x40, 0x41, 100, 255, 300,
	1 << 31, 1<<31 + 5, 1 << 32, 1<<32 + 3, 1 << 40,
	math.MaxInt64, 1 << 63, 1<<63 + 5,
	^uint64(0), ^uint64(7), neg8, 0xffffffff_00000000,
}

// TestRegSetMinMaxEdgeSoundness cross-checks every refinement against
// concrete members: for each abstract pair and branch direction actually
// witnessed by a concrete (x, y), the refined states must still admit x
// and y, stay well-formed, and isBranchTaken must not have ruled the
// direction out.
func TestRegSetMinMaxEdgeSoundness(t *testing.T) {
	pool := branchSamplePool()
	ops := []uint8{
		ebpf.JmpJEQ, ebpf.JmpJNE, ebpf.JmpJGT, ebpf.JmpJGE, ebpf.JmpJLT,
		ebpf.JmpJLE, ebpf.JmpJSGT, ebpf.JmpJSGE, ebpf.JmpJSLT, ebpf.JmpJSLE,
		ebpf.JmpJSET,
	}
	members := func(r *RegState) []uint64 {
		var out []uint64
		for _, v := range branchSampleValues {
			if r.contains(v) {
				out = append(out, v)
			}
		}
		return out
	}
	checked := 0
	for di, dstPre := range pool {
		dvals := members(&dstPre)
		for si, srcPre := range pool {
			svals := members(&srcPre)
			for _, op := range ops {
				for _, is32 := range []bool{false, true} {
					outcome := isBranchTaken(&dstPre, &srcPre, op, is32)
					// Refine lazily: only directions with a concrete
					// witness are reachable, and only those must produce
					// a consistent state.
					var refined [2]*[2]RegState
					for _, x := range dvals {
						for _, y := range svals {
							taken := branchPredicate(op, x, y, is32)
							if taken && outcome == branchNever || !taken && outcome == branchAlways {
								t.Fatalf("pool[%d] pool[%d] op %#x is32=%v: isBranchTaken=%d contradicts concrete (%#x, %#x) taken=%v",
									di, si, op, is32, outcome, x, y, taken)
							}
							idx := 0
							if taken {
								idx = 1
							}
							if refined[idx] == nil {
								d, s := dstPre, srcPre
								regSetMinMax(&d, &s, op, taken, is32)
								if !d.wellFormed() || !s.wellFormed() {
									t.Fatalf("pool[%d] pool[%d] op %#x is32=%v taken=%v: refined state not well-formed\ndst %+v\nsrc %+v",
										di, si, op, is32, taken, boundsOf(&d), boundsOf(&s))
								}
								refined[idx] = &[2]RegState{d, s}
							}
							d, s := &refined[idx][0], &refined[idx][1]
							if ok, dom := d.admits(x); !ok {
								t.Fatalf("pool[%d] pool[%d] op %#x is32=%v taken=%v: refined dst excludes member %#x (domain %s)\npre  %+v\npost %+v",
									di, si, op, is32, taken, x, dom, boundsOf(&dstPre), boundsOf(d))
							}
							if ok, dom := s.admits(y); !ok {
								t.Fatalf("pool[%d] pool[%d] op %#x is32=%v taken=%v: refined src excludes member %#x (domain %s)\npre  %+v\npost %+v",
									di, si, op, is32, taken, y, dom, boundsOf(&srcPre), boundsOf(s))
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no concrete pairs checked; sample pool is vacuous")
	}
	t.Logf("checked %d concrete (pair, op, width) refinements", checked)
}
