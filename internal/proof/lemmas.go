package proof

import (
	"fmt"

	"bcf/internal/expr"
)

// boundFn is one argument-only interval lemma: for an argument t
// matching its pattern it returns c, and the lemma concludes (bvule t c).
type boundFn func(t *expr.Expr) (uint64, bool)

// UpperBound applies the argument-only interval lemma r to t, returning
// the c of its conclusion (bvule t c); false when r is not such a lemma
// or t does not match its pattern. Like Rewrite, this is the lemma's one
// definition, shared by the checker and the prover.
func UpperBound(r RuleID, t *expr.Expr) (uint64, bool) {
	if r >= NumRules || bounds[r] == nil {
		return 0, false
	}
	return bounds[r](t)
}

var bounds = [NumRules]boundFn{
	// (bvand a c) and (bvand c a) are at most the mask c.
	RuleLemmaAndUleR: constMask(1),
	RuleLemmaAndUleL: constMask(0),
	// Every bit-vector fits in its width.
	RuleLemmaUleMax: func(t *expr.Expr) (uint64, bool) {
		return expr.Mask(t.Width), t.Width != 1
	},
	// (zero_extend a) fits in a's width.
	RuleLemmaZExtBound: func(t *expr.Expr) (uint64, bool) {
		if t.Op != expr.OpZExt {
			return 0, false
		}
		return expr.Mask(t.Args[0].Width), true
	},
	// (bvlshr a c) clears the top c bits (the shift is modulo the width).
	RuleLemmaLshrBound: func(t *expr.Expr) (uint64, bool) {
		if t.Op != expr.OpLshr {
			return 0, false
		}
		c, ok := t.Args[1].IsConst()
		return expr.Mask(t.Width) >> (c % uint64(t.Width)), ok
	},
	// Remainder by a non-zero constant c is strictly below it.
	RuleLemmaURemBound: func(t *expr.Expr) (uint64, bool) {
		if t.Op != expr.OpURem {
			return 0, false
		}
		c, ok := t.Args[1].IsConst()
		return c - 1, ok && c != 0
	},
}

// constMask bounds (bvand ...) by its operand i when that is a constant.
func constMask(i int) boundFn {
	return func(t *expr.Expr) (uint64, bool) {
		if t.Op != expr.OpAnd {
			return 0, false
		}
		return t.Args[i].IsConst()
	}
}

// applyLemma handles the interval lemmas over the bvule fragment. These
// are what the user-space prover uses for interval reasoning (masking,
// shifting and summing bounded quantities); each side condition is
// verified on constants by the checker.
func (ck *checker) applyLemma(s *Step,
	arg func(int) (*expr.Expr, error),
	ulePrem func(int) (*expr.Expr, *expr.Expr, error),
	eqPrem func(int) (*expr.Expr, *expr.Expr, error)) (Conclusion, error, bool) {

	// The argument-only lemmas conclude (bvule t c) with c from the table.
	if bound := bounds[s.Rule]; bound != nil {
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		c, ok := bound(t)
		if !ok {
			return Conclusion{}, errNoMatch, true
		}
		return formulaC(ck.tab.Ule(t, ck.tab.Const(c, t.Width))), nil, true
	}
	switch s.Rule {
	case RuleLemmaUleTrans:
		a, b, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		b2, c, err := ulePrem(1)
		if err != nil {
			return Conclusion{}, err, true
		}
		if b != b2 {
			return Conclusion{}, fmt.Errorf("middle terms differ"), true
		}
		return formulaC(ck.tab.Ule(a, c)), nil, true

	case RuleLemmaUleAdd:
		// (bvule a c1), (bvule b c2), c1+c2 does not wrap
		// ⊢ (bvule (bvadd a b) c1+c2)
		a, c1e, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		b, c2e, err := ulePrem(1)
		if err != nil {
			return Conclusion{}, err, true
		}
		c1, ok1 := c1e.IsConst()
		c2, ok2 := c2e.IsConst()
		if !ok1 || !ok2 {
			return Conclusion{}, errPattern("constant bounds"), true
		}
		sum := (c1 + c2) & expr.Mask(a.Width)
		if sum < c1 {
			return Conclusion{}, fmt.Errorf("bound sum wraps"), true
		}
		return formulaC(ck.tab.Ule(ck.tab.Add(a, b), ck.tab.Const(sum, a.Width))), nil, true

	case RuleLemmaUleShl:
		// (bvule a c), const k, c<<k does not lose bits
		// ⊢ (bvule (bvshl a k) c<<k)
		a, ce, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		ke, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		c, ok1 := ce.IsConst()
		k, ok2 := ke.IsConst()
		if !ok1 || !ok2 {
			return Conclusion{}, errPattern("constant bound and shift"), true
		}
		if ke.Width != a.Width {
			return Conclusion{}, fmt.Errorf("shift width mismatch"), true
		}
		sh := k % uint64(a.Width)
		shifted := (c << sh) & expr.Mask(a.Width)
		if shifted>>sh != c {
			return Conclusion{}, fmt.Errorf("shifted bound overflows"), true
		}
		return formulaC(ck.tab.Ule(ck.tab.Shl(a, ke), ck.tab.Const(shifted, a.Width))), nil, true

	case RuleLemmaUleConst:
		c1e, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		c2e, err := arg(1)
		if err != nil {
			return Conclusion{}, err, true
		}
		c1, ok1 := c1e.IsConst()
		c2, ok2 := c2e.IsConst()
		if !ok1 || !ok2 || c1e.Width != c2e.Width || c1 > c2 {
			return Conclusion{}, fmt.Errorf("not constants with c1 <= c2"), true
		}
		return formulaC(ck.tab.Ule(c1e, c2e)), nil, true

	case RuleLemmaEqBound:
		a, c, err := eqPrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		if _, ok := c.IsConst(); !ok {
			return Conclusion{}, errPattern("(= a const)"), true
		}
		if a.Width == 1 {
			return Conclusion{}, fmt.Errorf("bvule needs a bit-vector"), true
		}
		return formulaC(ck.tab.Ule(a, c)), nil, true

	case RuleLemmaZExtMono:
		// (bvule a c) with c const, arg t = (zext a)
		// ⊢ (bvule t zext(c)): zero extension preserves unsigned order.
		a, c, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		cv, ok := c.IsConst()
		if !ok {
			return Conclusion{}, errPattern("constant bound"), true
		}
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		if t.Op != expr.OpZExt || t.Args[0] != a {
			return Conclusion{}, errPattern("(zero_extend a) with a from the premise"), true
		}
		return formulaC(ck.tab.Ule(t, ck.tab.Const(cv, t.Width))), nil, true

	case RuleLemmaDivRemLe:
		// eBPF division/remainder never exceed the dividend (including
		// the b = 0 cases: x/0 = 0, x%0 = x).
		a, c, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		if (t.Op != expr.OpUDiv && t.Op != expr.OpURem) || t.Args[0] != a {
			return Conclusion{}, errPattern("(bvudiv/bvurem a b) with a from the premise"), true
		}
		return formulaC(ck.tab.Ule(t, c)), nil, true

	case RuleLemmaZeroUle:
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		if t.Width == 1 {
			return Conclusion{}, fmt.Errorf("bvule needs a bit-vector"), true
		}
		return formulaC(ck.tab.Ule(ck.tab.Const(0, t.Width), t)), nil, true

	case RuleLemmaUleAndMono:
		// (bvule a c) ⊢ (bvule (bvand a b) c): masking never increases.
		a, c, err := ulePrem(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err, true
		}
		if t.Op != expr.OpAnd ||
			(t.Args[0] != a && t.Args[1] != a) {
			return Conclusion{}, errPattern("(bvand a b) with a from the premise"), true
		}
		return formulaC(ck.tab.Ule(t, c)), nil, true
	}
	return Conclusion{}, nil, false
}
