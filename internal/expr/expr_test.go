package expr

import (
	"testing"
	"testing/quick"
)

func env(vals ...uint64) func(uint32) uint64 {
	return func(id uint32) uint64 {
		if int(id) < len(vals) {
			return vals[id]
		}
		return 0
	}
}

func TestConstAndVar(t *testing.T) {
	tab := NewTable(0)
	c := tab.Const(0x1ff, 8)
	if c.K != 0xff {
		t.Errorf("constant not truncated to width: %#x", c.K)
	}
	v := tab.Var(3, 64)
	if got := v.Eval(env(0, 0, 0, 42)); got != 42 {
		t.Errorf("var eval = %d", got)
	}
}

func TestPaperFigure2Expression(t *testing.T) {
	tab := NewTable(0)
	// (sym & 0xf) + (0xf - (sym & 0xf)) always evaluates to 15.
	sym := tab.Var(0, 64)
	masked := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(masked, tab.Sub(tab.Const(0xf, 64), masked))
	for _, s := range []uint64{0, 1, 15, 16, 0xdeadbeef, ^uint64(0)} {
		if got := e.Eval(env(s)); got != 15 {
			t.Errorf("eval(sym=%#x) = %d, want 15", s, got)
		}
	}
	cond := tab.Ule(e, tab.Const(15, 64))
	for _, s := range []uint64{0, 7, ^uint64(0)} {
		if got := cond.Eval(env(s)); got != 1 {
			t.Errorf("condition should hold for sym=%#x", s)
		}
	}
}

func TestEvalMatchesGoSemantics(t *testing.T) {
	f := func(x, y uint64) bool {
		tab := NewTable(0)
		vx, vy := tab.Var(0, 64), tab.Var(1, 64)
		ev := env(x, y)
		checks := []struct {
			e    *Expr
			want uint64
		}{
			{tab.Add(vx, vy), x + y},
			{tab.Sub(vx, vy), x - y},
			{tab.Mul(vx, vy), x * y},
			{tab.And(vx, vy), x & y},
			{tab.Or(vx, vy), x | y},
			{tab.Xor(vx, vy), x ^ y},
			{tab.Shl(vx, vy), x << (y % 64)},
			{tab.Lshr(vx, vy), x >> (y % 64)},
			{tab.Ashr(vx, vy), uint64(int64(x) >> (y % 64))},
			{tab.Not(vx), ^x},
			{tab.Neg(vx), -x},
			{tab.Eq(vx, vy), b2u(x == y)},
			{tab.Ult(vx, vy), b2u(x < y)},
			{tab.Ule(vx, vy), b2u(x <= y)},
			{tab.Slt(vx, vy), b2u(int64(x) < int64(y))},
			{tab.Sle(vx, vy), b2u(int64(x) <= int64(y))},
		}
		if y == 0 {
			checks = append(checks,
				struct {
					e    *Expr
					want uint64
				}{tab.UDiv(vx, vy), 0},
				struct {
					e    *Expr
					want uint64
				}{tab.URem(vx, vy), x})
		} else {
			checks = append(checks,
				struct {
					e    *Expr
					want uint64
				}{tab.UDiv(vx, vy), x / y},
				struct {
					e    *Expr
					want uint64
				}{tab.URem(vx, vy), x % y})
		}
		for _, c := range checks {
			if got := c.e.Eval(ev); got != c.want {
				t.Logf("%s: got %#x want %#x (x=%#x y=%#x)", c.e, got, c.want, x, y)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEval32BitOps(t *testing.T) {
	f := func(x, y uint32) bool {
		tab := NewTable(0)
		vx, vy := tab.Var(0, 32), tab.Var(1, 32)
		ev := env(uint64(x), uint64(y))
		if got := tab.Add(vx, vy).Eval(ev); got != uint64(x+y) {
			return false
		}
		if got := tab.Shl(vx, vy).Eval(ev); got != uint64(x<<(y%32)) {
			return false
		}
		if got := tab.Ashr(vx, vy).Eval(ev); got != uint64(uint32(int32(x)>>(y%32))) {
			return false
		}
		if got := tab.Slt(vx, vy).Eval(ev); got != b2u(int32(x) < int32(y)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestWidthChanging(t *testing.T) {
	tab := NewTable(0)
	v32 := tab.Var(0, 32)
	z := tab.ZExt(v32, 64)
	s := tab.SExt(v32, 64)
	ev := env(0xffff_fff6) // -10 as int32
	if got := z.Eval(ev); got != 0xffff_fff6 {
		t.Errorf("zext = %#x", got)
	}
	if got := s.Eval(ev); got != 0xffff_ffff_ffff_fff6 {
		t.Errorf("sext = %#x", got)
	}
	v64 := tab.Var(1, 64)
	lo := tab.Extract(v64, 0, 32)
	hi := tab.Extract(v64, 32, 32)
	ev2 := env(0, 0x1122_3344_5566_7788)
	if got := lo.Eval(ev2); got != 0x5566_7788 {
		t.Errorf("extract lo = %#x", got)
	}
	if got := hi.Eval(ev2); got != 0x1122_3344 {
		t.Errorf("extract hi = %#x", got)
	}
	// No-op extensions collapse.
	if tab.ZExt(v64, 64) != v64 {
		t.Error("ZExt to same width should be identity")
	}
	if tab.Extract(v64, 0, 64) != v64 {
		t.Error("full Extract should be identity")
	}
}

func TestBoolOps(t *testing.T) {
	tab := NewTable(0)
	a, b := tab.Var(0, 1), tab.Var(1, 1)
	cases := []struct {
		e                  *Expr
		t00, t01, t10, t11 uint64
	}{
		{tab.BoolAnd(a, b), 0, 0, 0, 1},
		{tab.BoolOr(a, b), 0, 1, 1, 1},
		{tab.Implies(a, b), 1, 1, 0, 1},
	}
	for _, c := range cases {
		got := [4]uint64{
			c.e.Eval(env(0, 0)), c.e.Eval(env(0, 1)),
			c.e.Eval(env(1, 0)), c.e.Eval(env(1, 1)),
		}
		want := [4]uint64{c.t00, c.t01, c.t10, c.t11}
		if got != want {
			t.Errorf("%s: got %v want %v", c.e, got, want)
		}
	}
	if got := tab.BoolNot(a).Eval(env(1)); got != 0 {
		t.Errorf("not(1) = %d", got)
	}
}

func TestEqualAndHash(t *testing.T) {
	// Built in tables of their own, equal terms are distinct nodes.
	mk := func() *Expr {
		src := NewTable(0)
		s := src.Var(0, 64)
		return src.Add(src.And(s, src.Const(0xf, 64)), src.Sub(src.Const(0xf, 64), src.And(s, src.Const(0xf, 64))))
	}
	a, b := mk(), mk()
	if a == b || !Equal(a, b) {
		t.Error("structurally equal terms must be Equal")
	}
	src := a.Table()
	c := src.Add(src.Var(0, 64), src.Const(1, 64))
	if Equal(a, c) {
		t.Error("different terms must not be Equal")
	}
	// A table hash-conses: equal terms interned into it are one node,
	// and members of one table are Equal only when they are that node.
	tab := NewTable(0)
	ta, err := tab.Intern(a)
	if err != nil {
		t.Fatal(err)
	}
	if tb, _ := tab.Intern(b); tb != ta {
		t.Error("equal terms interned into one table must be the same node")
	}
	if tc, _ := tab.Intern(c); Equal(ta, tc) || !Equal(ta, a) {
		t.Error("Equal disagrees with the table")
	}
	s := tab.Var(0, 64)
	if built := tab.Add(tab.And(s, tab.Const(0xf, 64)), tab.Sub(tab.Const(0xf, 64), tab.And(s, tab.Const(0xf, 64)))); built != ta {
		t.Error("the table's constructors must find the interned node")
	}
}

func TestConjAndHelpers(t *testing.T) {
	tab := NewTable(0)
	if !tab.Conj().IsTrue() {
		t.Error("empty Conj should be true")
	}
	p := tab.Ule(tab.Var(0, 64), tab.Const(5, 64))
	if tab.Conj(p) != p {
		t.Error("singleton Conj should be identity")
	}
	q := tab.Conj(p, p, nil, p)
	if q.Op != OpBoolAnd {
		t.Errorf("Conj: %v", q)
	}
	if !tab.Bool(true).IsTrue() || !tab.Bool(false).IsFalse() {
		t.Error("Bool constants broken")
	}
}

func TestLenAndCount(t *testing.T) {
	src := NewTable(0)
	s := src.Var(0, 64)
	m := src.And(s, src.Const(0xf, 64))
	e := src.Add(m, src.Sub(src.Const(0xf, 64), m))
	// Interned, the two 0xf constants are one node: add, m = (and var
	// 0xf), sub, so five distinct nodes.
	tab := NewTable(0)
	te, err := tab.Intern(e)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 5 || tab.Count(100, te) != 5 || tab.Count(100, te.Args[1]) != 4 || tab.Count(100, te.Args[1], te) != 5 {
		t.Errorf("Len = %d, Count = %d, %d, %d; want 5, 5, 4, 5", tab.Len(),
			tab.Count(100, te), tab.Count(100, te.Args[1]), tab.Count(100, te.Args[1], te))
	}
	// A term from outside is counted as its member, sharing te's nodes.
	if got := tab.Count(100, te, src.Add(e, src.Var(1, 64))); got != 7 {
		t.Errorf("Count with a foreign term = %d, want 7", got)
	}
	if got := tab.Count(2, te); got <= 2 {
		t.Errorf("Count past its limit = %d, want above 2", got)
	}
}

func TestStringRendering(t *testing.T) {
	tab := NewTable(0)
	s := tab.Var(0, 64)
	e := tab.Ule(tab.Add(tab.And(s, tab.Const(0xf, 64)), tab.Const(1, 64)), tab.Const(16, 64))
	got := e.String()
	want := "(bvule (bvadd (bvand sym0 0xf) 0x1) 0x10)"
	if got != want {
		t.Errorf("String = %q want %q", got, want)
	}
	ex := tab.Extract(tab.Var(1, 64), 0, 32)
	if ex.String() != "((_ extract 31 0) sym1)" {
		t.Errorf("extract String = %q", ex.String())
	}
}

// TestNilTableBuildsNothing: the constructors are *Table methods only,
// and a nil *Table panics rather than build an unshared node.
func TestNilTableBuildsNothing(t *testing.T) {
	x := NewTable(0).Var(0, 8)
	var tab *Table
	for name, build := range map[string]func(){
		"Const": func() { tab.Const(1, 8) },
		"Var":   func() { tab.Var(0, 8) },
		"Add":   func() { tab.Add(x, x) },
		"ZExt":  func() { tab.ZExt(x, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a nil *Table built a term", name)
				}
			}()
			build()
		}()
	}
}
