package bitblast

import (
	"math/rand"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/sat"
)

// solveCNF runs the SAT solver over an encoded formula.
func solveCNF(t *testing.T, c *CNF) sat.Result {
	t.Helper()
	s := sat.New(c.NVars, false)
	for _, cl := range c.Clauses {
		if err := s.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSAT/mustUNSAT encode and decide a formula.
func mustSAT(t *testing.T, f *expr.Expr) sat.Result {
	t.Helper()
	c, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	res := solveCNF(t, c)
	if !res.SAT {
		t.Fatalf("expected SAT: %s", f)
	}
	return res
}

func mustUNSAT(t *testing.T, f *expr.Expr) {
	t.Helper()
	c, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if res := solveCNF(t, c); res.SAT {
		t.Fatalf("expected UNSAT: %s", f)
	}
}

func TestConstFormulas(t *testing.T) {
	tab := expr.NewTable(0)
	mustSAT(t, tab.Bool(true))
	mustUNSAT(t, tab.Bool(false))
	mustSAT(t, tab.Eq(tab.Const(5, 8), tab.Const(5, 8)))
	mustUNSAT(t, tab.Eq(tab.Const(5, 8), tab.Const(6, 8)))
}

func TestPaperFigure2ConditionValid(t *testing.T) {
	tab := expr.NewTable(0)
	// (sym&0xf) + (0xf - (sym&0xf)) <= 15 is valid: its negation is UNSAT.
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m))
	cond := tab.Ule(e, tab.Const(15, 64))
	mustUNSAT(t, tab.BoolNot(cond))
	// The weaker claim <= 14 is falsifiable.
	bad := tab.Ule(e, tab.Const(14, 64))
	res := mustSAT(t, tab.BoolNot(bad))
	_ = res
}

func TestCounterexampleModel(t *testing.T) {
	tab := expr.NewTable(0)
	// x & 0xf0 == 0x10 has solutions; extract one and check it.
	x := tab.Var(7, 8)
	f := tab.Eq(tab.And(x, tab.Const(0xf0, 8)), tab.Const(0x10, 8))
	c, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	res := solveCNF(t, c)
	if !res.SAT {
		t.Fatal("expected SAT")
	}
	v := c.EvalModel(res.Model, 7)
	if v&0xf0 != 0x10 {
		t.Fatalf("extracted model %#x does not satisfy the formula", v)
	}
}

// randTerm builds a random bit-vector term over the given variables, in
// their table.
func randTerm(rng *rand.Rand, vars []*expr.Expr, width uint8, depth int) *expr.Expr {
	tab := vars[0].Table()
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			v := vars[rng.Intn(len(vars))]
			if v.Width == width {
				return v
			}
			if v.Width < width {
				if rng.Intn(2) == 0 {
					return tab.ZExt(v, width)
				}
				return tab.SExt(v, width)
			}
			return tab.Extract(v, 0, width)
		}
		return tab.Const(rng.Uint64(), width)
	}
	ops := []expr.Op{
		expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpAnd, expr.OpOr,
		expr.OpXor, expr.OpShl, expr.OpLshr, expr.OpAshr,
	}
	op := ops[rng.Intn(len(ops))]
	a := randTerm(rng, vars, width, depth-1)
	b := randTerm(rng, vars, width, depth-1)
	if rng.Intn(8) == 0 {
		return tab.Not(a)
	}
	if rng.Intn(8) == 0 {
		return tab.Neg(a)
	}
	return tab.Bin(op, a, b)
}

// TestDifferentialEval cross-checks the CNF encoding against direct
// evaluation: for a random term t and assignment env,
// (vars = env) ∧ t == eval(t) must be SAT and
// (vars = env) ∧ t != eval(t) must be UNSAT.
func TestDifferentialEval(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for iter := 0; iter < 150; iter++ {
		width := []uint8{8, 16, 32}[rng.Intn(3)]
		tab := expr.NewTable(0)
		v0 := tab.Var(0, width)
		v1 := tab.Var(1, 8)
		vars := []*expr.Expr{v0, v1}
		term := randTerm(rng, vars, width, 3)

		a0 := rng.Uint64() & expr.Mask(width)
		a1 := rng.Uint64() & 0xff
		env := func(id uint32) uint64 {
			if id == 0 {
				return a0
			}
			return a1
		}
		want := term.Eval(env)

		pin := tab.BoolAnd(
			tab.Eq(v0, tab.Const(a0, width)),
			tab.Eq(v1, tab.Const(a1, 8)),
		)
		good := tab.BoolAnd(pin, tab.Eq(term, tab.Const(want, width)))
		bad := tab.BoolAnd(pin, tab.Ne(term, tab.Const(want, width)))
		mustSAT(t, good)
		mustUNSAT(t, bad)
	}
}

// TestDifferentialPredicates does the same for comparison predicates.
func TestDifferentialPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for iter := 0; iter < 100; iter++ {
		width := []uint8{8, 16}[rng.Intn(2)]
		tab := expr.NewTable(0)
		preds := []func(a, b *expr.Expr) *expr.Expr{tab.Eq, tab.Ult, tab.Ule, tab.Slt, tab.Sle}
		v0, v1 := tab.Var(0, width), tab.Var(1, width)
		a0 := rng.Uint64() & expr.Mask(width)
		a1 := rng.Uint64() & expr.Mask(width)
		p := preds[rng.Intn(len(preds))](v0, v1)
		env := func(id uint32) uint64 {
			if id == 0 {
				return a0
			}
			return a1
		}
		truth := p.Eval(env) == 1
		pin := tab.BoolAnd(
			tab.Eq(v0, tab.Const(a0, width)),
			tab.Eq(v1, tab.Const(a1, width)),
		)
		f := tab.BoolAnd(pin, p)
		if truth {
			mustSAT(t, f)
		} else {
			mustUNSAT(t, f)
		}
	}
}

func TestDeterminism(t *testing.T) {
	// Encoding the same structure twice (fresh nodes, each in a table of
	// its own) yields identical CNF.
	build := func() *expr.Expr {
		tab := expr.NewTable(0)
		s := tab.Var(0, 64)
		m := tab.And(s, tab.Const(0xf, 64))
		return tab.BoolNot(tab.Ule(tab.Add(m, tab.Sub(tab.Const(0xf, 64), m)), tab.Const(15, 64)))
	}
	c1, err := Encode(build())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Encode(build())
	if err != nil {
		t.Fatal(err)
	}
	if c1.NVars != c2.NVars || len(c1.Clauses) != len(c2.Clauses) {
		t.Fatalf("non-deterministic shape: %d/%d vars, %d/%d clauses",
			c1.NVars, c2.NVars, len(c1.Clauses), len(c2.Clauses))
	}
	for i := range c1.Clauses {
		if len(c1.Clauses[i]) != len(c2.Clauses[i]) {
			t.Fatalf("clause %d differs in length", i)
		}
		for j := range c1.Clauses[i] {
			if c1.Clauses[i][j] != c2.Clauses[i][j] {
				t.Fatalf("clause %d literal %d differs", i, j)
			}
		}
	}
}

func TestSharedSubtermsReuseVariables(t *testing.T) {
	tab := expr.NewTable(0)
	s := tab.Var(0, 32)
	m := tab.And(s, tab.Const(0xff, 32))
	// m appears twice; sharing must not double the variable count.
	f := tab.Eq(tab.Add(m, m), tab.Shl(m, tab.Const(1, 32)))
	c, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// A non-shared encoding of three AND copies would need at least 3*32
	// gate variables for the masks alone; sharing keeps it well below.
	if c.NVars > 1+32+32*8 {
		t.Fatalf("suspiciously many variables (%d): sharing broken?", c.NVars)
	}
	if res := solveCNF(t, c); res.SAT {
		// x+x == x<<1 is valid, so the formula is SAT (it holds for any x);
		// its negation must be UNSAT.
	} else {
		t.Fatal("x+x == x<<1 should be satisfiable")
	}
	mustUNSAT(t, tab.BoolNot(f))
}

// Encode trusts its input to be well-formed (package expr type-checks
// every node it builds or decodes); only the root's width is checked.
func TestRejectsWidthMismatch(t *testing.T) {
	tab := expr.NewTable(0)
	if _, err := Encode(tab.Var(0, 64)); err == nil {
		t.Fatal("expected error for non-boolean root")
	}
}

func TestUDivEncodes(t *testing.T) {
	tab := expr.NewTable(0)
	// x/x == 1 is falsifiable only at x == 0 (where x/0 = 0).
	x := tab.Var(0, 8)
	f := tab.BoolAnd(
		tab.Ne(x, tab.Const(0, 8)),
		tab.Ne(tab.UDiv(x, x), tab.Const(1, 8)),
	)
	mustUNSAT(t, f)
}

func TestShiftSemanticsModWidth(t *testing.T) {
	tab := expr.NewTable(0)
	// eBPF: shift amounts are taken modulo the width. x << 32 (width 32)
	// equals x << 0 = x.
	x := tab.Var(0, 32)
	f := tab.Ne(tab.Shl(x, tab.Const(32, 32)), x)
	mustUNSAT(t, f)
	// Arithmetic shift of the sign bit propagates it.
	g := tab.Ne(
		tab.Ashr(tab.Const(0x8000_0000, 32), tab.Const(31, 32)),
		tab.Const(0xffff_ffff, 32),
	)
	mustUNSAT(t, g)
}

func TestDividerDifferential(t *testing.T) {
	tab := expr.NewTable(0)
	// Exhaustive-ish differential over 6-bit-masked 8-bit operands:
	// pinned operands must force the unique (q, r) pair.
	x, y := tab.Var(0, 8), tab.Var(1, 8)
	for _, op := range []func(a, b *expr.Expr) *expr.Expr{tab.UDiv, tab.URem} {
		term := op(x, y)
		for _, pair := range [][2]uint64{
			{0, 0}, {7, 0}, {0, 3}, {17, 5}, {255, 1}, {255, 255},
			{200, 7}, {64, 8}, {13, 13}, {1, 2},
		} {
			a, b := pair[0], pair[1]
			want := term.Eval(func(id uint32) uint64 {
				if id == 0 {
					return a
				}
				return b
			})
			pin := tab.BoolAnd(
				tab.Eq(x, tab.Const(a, 8)),
				tab.Eq(y, tab.Const(b, 8)),
			)
			mustSAT(t, tab.BoolAnd(pin, tab.Eq(term, tab.Const(want, 8))))
			mustUNSAT(t, tab.BoolAnd(pin, tab.Ne(term, tab.Const(want, 8))))
		}
	}
}

func TestDividerZeroSemantics(t *testing.T) {
	tab := expr.NewTable(0)
	// eBPF: x/0 == 0 and x%0 == x, for every x.
	x := tab.Var(0, 8)
	zero := tab.Const(0, 8)
	mustUNSAT(t, tab.Ne(tab.UDiv(x, zero), zero))
	mustUNSAT(t, tab.Ne(tab.URem(x, zero), x))
}

func TestDividerBoundProperty(t *testing.T) {
	tab := expr.NewTable(0)
	// q <= a and r <= a always (the lemma_divrem_le fact, bit-level).
	x, y := tab.Var(0, 8), tab.Var(1, 8)
	mustUNSAT(t, tab.Ult(x, tab.UDiv(x, y))) // ¬(x < x/y)
	mustUNSAT(t, tab.Ult(x, tab.URem(x, y)))
}
