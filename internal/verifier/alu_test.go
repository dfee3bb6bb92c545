package verifier

// Property tests for the abstract transfer functions, in the spirit of
// Vishwanathan et al.'s "Verifying the Verifier": for random abstract
// register states and random concrete members, the concrete result of
// every ALU operation must be contained in the abstract result, and
// branch reasoning must never exclude a concrete behaviour.

import (
	"math/rand"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// randAbstract builds a random sound abstraction along with a concrete
// member: it starts from the member and widens randomly.
func randAbstract(rng *rand.Rand) (RegState, uint64) {
	v := rng.Uint64()
	switch rng.Intn(4) {
	case 0: // exact constant
		return constScalar(v), v
	case 1: // unknown
		return unknownScalar(), v
	case 2: // range around the value
		r := unknownScalar()
		span := rng.Uint64() % (1 << uint(rng.Intn(40)))
		lo := v - rng.Uint64()%(span+1)
		r.UMin, r.UMax = lo, lo+span
		if r.UMax < r.UMin { // wrapped: give up on the range
			r.UMin, r.UMax = 0, ^uint64(0)
		}
		r.Var = tnum.Range(r.UMin, r.UMax)
		r.sync()
		return r, v
	default: // tnum with random known bits
		mask := rng.Uint64()
		r := unknownScalar()
		r.Var = tnum.Tnum{Value: v &^ mask, Mask: mask}
		r.sync()
		return r, v
	}
}

// scalarDraws are the generators the soundness tests draw abstract
// states and concrete members from: uniform values widened at random,
// which rarely land on a sign or width boundary, and edgePair's values
// near those boundaries.
var scalarDraws = []struct {
	name string
	draw func(*rand.Rand) (dst RegState, dv uint64, src RegState, sv uint64)
}{{"uniform", randPair}, {"edge", edgePair}}

// randPair draws a dst and a src from randAbstract.
func randPair(rng *rand.Rand) (dst RegState, dv uint64, src RegState, sv uint64) {
	dst, dv = randAbstract(rng)
	src, sv = randAbstract(rng)
	return dst, dv, src, sv
}

var propOps = []uint8{
	ebpf.AluADD, ebpf.AluSUB, ebpf.AluMUL, ebpf.AluAND, ebpf.AluOR,
	ebpf.AluXOR, ebpf.AluLSH, ebpf.AluRSH, ebpf.AluARSH,
	ebpf.AluDIV, ebpf.AluMOD,
}

func TestAluScalarSoundness64(t *testing.T) {
	for _, g := range scalarDraws {
		rng := rand.New(rand.NewSource(101))
		for iter := 0; iter < 30000; iter++ {
			dstAbs, dstVal, srcAbs, srcVal := g.draw(rng)
			op := propOps[rng.Intn(len(propOps))]
			want, ok := foldConst(dstVal, srcVal, op, false)
			if !ok {
				continue
			}
			got := dstAbs
			aluScalar(&got, &srcAbs, op, false)
			if !got.wellFormed() {
				t.Fatalf("%s: op %s produced malformed state: %+v", g.name, ebpf.AluOpName(op), got)
			}
			if !got.contains(want) {
				t.Fatalf("%s: unsound %s: dst=%v(%d) src=%v(%d) concrete=%d abstract=%v",
					g.name, ebpf.AluOpName(op), dstAbs.Var, dstVal, srcAbs.Var, srcVal, want, got)
			}
		}
	}
}

func TestAluScalarSoundness32(t *testing.T) {
	for _, g := range scalarDraws {
		rng := rand.New(rand.NewSource(202))
		for iter := 0; iter < 30000; iter++ {
			dstAbs, dstVal, srcAbs, srcVal := g.draw(rng)
			op := propOps[rng.Intn(len(propOps))]
			want, ok := foldConst(dstVal, srcVal, op, true)
			if !ok {
				continue
			}
			got := dstAbs
			aluScalar(&got, &srcAbs, op, true)
			if !got.wellFormed() {
				t.Fatalf("%s: op32 %s produced malformed state", g.name, ebpf.AluOpName(op))
			}
			if !got.contains(want) {
				t.Fatalf("%s: unsound 32-bit %s: dst=%d src=%d concrete=%#x abstract=%v",
					g.name, ebpf.AluOpName(op), dstVal, srcVal, want, got)
			}
		}
	}
}

func TestIsBranchTakenSoundness(t *testing.T) {
	for _, g := range scalarDraws {
		rng := rand.New(rand.NewSource(303))
		for iter := 0; iter < 30000; iter++ {
			dstAbs, dstVal, srcAbs, srcVal := g.draw(rng)
			op := transferJmpOps[rng.Intn(len(transferJmpOps))]
			is32 := rng.Intn(2) == 0
			a, b := dstVal, srcVal
			if is32 {
				a, b = uint64(uint32(a)), uint64(uint32(b))
			}
			concrete, err := concreteBranch(op, a, b, is32)
			if err != nil {
				continue
			}
			switch isBranchTaken(&dstAbs, &srcAbs, op, is32) {
			case branchAlways:
				if !concrete {
					t.Fatalf("%s: unsound always-taken: op=%s dst=%d src=%d is32=%v dstAbs=%+v srcAbs=%+v",
						g.name, ebpf.JmpOpName(op|ebpf.ClassJMP), dstVal, srcVal, is32, dstAbs, srcAbs)
				}
			case branchNever:
				if concrete {
					t.Fatalf("%s: unsound never-taken: op=%s dst=%d src=%d is32=%v",
						g.name, ebpf.JmpOpName(op|ebpf.ClassJMP), dstVal, srcVal, is32)
				}
			}
		}
	}
}

// concreteBranch evaluates the jump condition on concrete values.
func concreteBranch(op uint8, a, b uint64, is32 bool) (bool, error) {
	var sa, sb int64
	if is32 {
		sa, sb = int64(int32(uint32(a))), int64(int32(uint32(b)))
	} else {
		sa, sb = int64(a), int64(b)
	}
	switch op {
	case ebpf.JmpJEQ:
		return a == b, nil
	case ebpf.JmpJNE:
		return a != b, nil
	case ebpf.JmpJGT:
		return a > b, nil
	case ebpf.JmpJGE:
		return a >= b, nil
	case ebpf.JmpJLT:
		return a < b, nil
	case ebpf.JmpJLE:
		return a <= b, nil
	case ebpf.JmpJSGT:
		return sa > sb, nil
	case ebpf.JmpJSGE:
		return sa >= sb, nil
	case ebpf.JmpJSLT:
		return sa < sb, nil
	case ebpf.JmpJSLE:
		return sa <= sb, nil
	case ebpf.JmpJSET:
		return a&b != 0, nil
	}
	return false, errUnknownOp
}

var errUnknownOp = &Error{Msg: "unknown op"}

func TestRegSetMinMaxSoundness(t *testing.T) {
	for _, g := range scalarDraws {
		rng := rand.New(rand.NewSource(404))
		for iter := 0; iter < 30000; iter++ {
			dstAbs, dstVal, srcAbs, srcVal := g.draw(rng)
			op := transferJmpOps[rng.Intn(len(transferJmpOps))]
			is32 := rng.Intn(2) == 0
			a, b := dstVal, srcVal
			if is32 {
				a, b = uint64(uint32(a)), uint64(uint32(b))
			}
			taken, err := concreteBranch(op, a, b, is32)
			if err != nil {
				continue
			}
			// Refine along the edge the concrete values actually take; the
			// concrete values must survive the refinement.
			d, s := dstAbs, srcAbs
			regSetMinMax(&d, &s, op, taken, is32)
			if !d.wellFormed() || !s.wellFormed() {
				t.Fatalf("%s: malformed refinement: op=%s taken=%v", g.name, ebpf.JmpOpName(op|ebpf.ClassJMP), taken)
			}
			if !d.contains(dstVal) {
				t.Fatalf("%s: refinement excluded dst: op=%s taken=%v is32=%v dst=%d (%+v -> %+v)",
					g.name, ebpf.JmpOpName(op|ebpf.ClassJMP), taken, is32, dstVal, dstAbs, d)
			}
			if !s.contains(srcVal) {
				t.Fatalf("%s: refinement excluded src: op=%s taken=%v is32=%v src=%d",
					g.name, ebpf.JmpOpName(op|ebpf.ClassJMP), taken, is32, srcVal)
			}
		}
	}
}

func TestLoadedScalarBounds(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		r := loadedScalar(size)
		if !r.wellFormed() {
			t.Fatalf("size %d: malformed", size)
		}
		if size < 8 {
			max := uint64(1)<<(8*size) - 1
			if r.UMax != max || r.SMin != 0 {
				t.Fatalf("size %d: bounds [%d,%d]", size, r.UMin, r.UMax)
			}
			if !r.contains(max) || !r.contains(0) {
				t.Fatalf("size %d: endpoints excluded", size)
			}
		}
	}
}

func TestZext32Property(t *testing.T) {
	for _, g := range scalarDraws {
		rng := rand.New(rand.NewSource(505))
		for iter := 0; iter < 10000; iter++ {
			abs, val, _, _ := g.draw(rng)
			abs.zext32()
			if !abs.wellFormed() {
				t.Fatalf("%s: zext32 produced malformed state", g.name)
			}
			if !abs.contains(uint64(uint32(val))) {
				t.Fatalf("%s: zext32 excluded the truncated member: %#x", g.name, val)
			}
		}
	}
}

func TestApplyRefinedRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for iter := 0; iter < 10000; iter++ {
		abs, val := randAbstract(rng)
		lo := val - rng.Uint64()%1000
		hi := val + rng.Uint64()%1000
		if lo > val || hi < val {
			continue // wrapped
		}
		applyRefinedRange(&abs, lo, hi)
		if !abs.wellFormed() {
			t.Fatal("applyRefinedRange produced malformed state")
		}
		if !abs.contains(val) {
			t.Fatalf("refined range excluded the witness: val=%d lo=%d hi=%d", val, lo, hi)
		}
	}
}

// aliasFixture is a well-formed non-constant scalar in [3, 40] for the
// source-aliasing tests.
func aliasFixture(t *testing.T) RegState {
	x := unknownScalar()
	x.UMin, x.UMax = 3, 40
	x.Var = tnum.Tnum{Value: 1, Mask: 0x2e} // odd, bits 1-3 and 5 unknown
	x.sync()
	if x.IsConst() || !x.wellFormed() {
		t.Fatalf("fixture is not a well-formed non-constant scalar: %s", x.String())
	}
	return x
}

// TestAluSourceAliasesDestination pins checkALU's source-aliasing rule:
// for every ALU op at both widths, `r1 op= r1` computes what
// `r1 op= r2` computes when r2 holds an exact copy of r1. checkALU passes
// the register itself as both operands; the transfer functions read both
// into views before they write dst.
func TestAluSourceAliasesDestination(t *testing.T) {
	x := aliasFixture(t)
	ops := []uint8{ebpf.AluADD, ebpf.AluSUB, ebpf.AluMUL, ebpf.AluDIV, ebpf.AluOR, ebpf.AluAND,
		ebpf.AluLSH, ebpf.AluRSH, ebpf.AluMOD, ebpf.AluXOR, ebpf.AluMOV, ebpf.AluARSH}
	widths := []struct {
		name string
		alu  func(op uint8, dst, src ebpf.Reg) ebpf.Instruction
	}{{"alu64", ebpf.Alu64Reg}, {"alu32", ebpf.Alu32Reg}}
	for _, w := range widths {
		for _, op := range ops {
			run := func(src ebpf.Reg) RegState {
				v := New(mapProg("r0 = 0\nexit"), Config{})
				st := &v.st
				st.Regs[ebpf.R1], st.Regs[ebpf.R2] = x, x
				ins := w.alu(op, ebpf.R1, src)
				if err := v.checkALU(st, 0, &ins); err != nil {
					t.Fatalf("%s %s: %v", w.name, ebpf.AluOpName(op), err)
				}
				return st.Regs[ebpf.R1]
			}
			aliased, copied := run(ebpf.R1), run(ebpf.R2)
			if aliased != copied {
				t.Errorf("%s r1 %s r1 = %s, but with a copy of the source %s",
					w.name, ebpf.AluOpName(op), aliased.String(), copied.String())
			}
		}
	}
}

// TestBranchSourceAliasesDestination pins regSetMinMax's
// source-aliasing rule, which checkCondJmp relies on for `jX rN, rN`:
// both operands are refined as copies and written back dst first, so at
// either width rN ends up as the refined source of `jX r1, r2` with r2 an
// exact copy of r1. Only branches that can never be taken are affected:
// taken, `jgt r1, r1` with r1 in [3, 40] leaves [3, 39], not [4, 39].
func TestBranchSourceAliasesDestination(t *testing.T) {
	x := aliasFixture(t)
	for _, is32 := range []bool{false, true} {
		for _, op := range transferJmpOps {
			for _, taken := range []bool{true, false} {
				aliased := x
				regSetMinMax(&aliased, &aliased, op, taken, is32)
				d, s := x, x
				regSetMinMax(&d, &s, op, taken, is32)
				if aliased != s {
					t.Errorf("is32=%v %s taken=%v: r1 against r1 = %+v, but the refined copy of the source is %+v",
						is32, ebpf.JmpOpName(op|ebpf.ClassJMP), taken, boundsOf(&aliased), boundsOf(&s))
				}
			}
		}
		r := x
		regSetMinMax(&r, &r, ebpf.JmpJGT, true, is32)
		lo, hi := r.UMin, r.UMax
		if is32 {
			lo, hi = uint64(r.U32Min), uint64(r.U32Max)
		}
		if lo != 3 || hi != 39 {
			t.Errorf("is32=%v: taken jgt r1, r1 left %+v, want unsigned [3, 39]", is32, boundsOf(&r))
		}
	}
}
