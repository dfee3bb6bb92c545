package proof

// Positive tests: every lemma and rewrite rule has at least one valid
// application accepted by the checker, and a matching invalid one
// rejected. The proofs embed each rule in a minimal refutation of
// ¬(bvule 0 0) — the rule's conclusion is irrelevant to the final
// contradiction, so acceptance hinges only on the rule being applicable.

import (
	"testing"

	"bcf/internal/expr"
)

// trivially true condition whose refutation skeleton any step list can
// ride along with.
var trivCond = expr.Ule(expr.Const(0, 8), expr.Const(0, 8))

// checkSteps wraps the given steps with a closing contradiction against
// the trivially-true condition and runs the checker.
func checkSteps(t *testing.T, steps []Step) error {
	t.Helper()
	// skeleton: s0 assume ⊢ ¬C; then user steps; then:
	//   eval (= C true); not_true_elim(¬C, (= C true)) ⊢ false
	all := append([]Step{{Rule: RuleAssume}}, steps...)
	evalIdx := uint32(len(all))
	all = append(all, Step{Rule: RuleEvalConst, Args: []*expr.Expr{trivCond}})
	all = append(all, Step{Rule: RuleNotTrueElim, Premises: []uint32{0, evalIdx}})
	return Check(trivCond, &Proof{Steps: all})
}

func mustApply(t *testing.T, name string, steps ...Step) {
	t.Helper()
	if err := checkSteps(t, steps); err != nil {
		t.Fatalf("%s: valid application rejected: %v", name, err)
	}
}

func mustFail(t *testing.T, name string, steps ...Step) {
	t.Helper()
	if err := checkSteps(t, steps); err == nil {
		t.Fatalf("%s: invalid application accepted", name)
	}
}

// catalogCase is one application of a rewrite or argument-only bound
// rule to a term over the w-bit variables x (id 0) and y (id 1).
type catalogCase struct {
	rule RuleID
	arg  *expr.Expr
}

// extended returns a term over x of width w and its zero extension: x
// widened to 2w bits, or x's low word widened to 64 bits at w = 64.
func extended(w uint8) (narrow, wide *expr.Expr) {
	narrow = expr.Var(0, w)
	if w == 64 {
		narrow = expr.Extract(narrow, 0, 32)
	}
	return narrow, expr.ZExt(narrow, min(2*w, 64))
}

// rewriteCases builds one matching argument per rewrite rule at width w.
func rewriteCases(w uint8) []catalogCase {
	x, y := expr.Var(0, w), expr.Var(1, w)
	zero, one := expr.Const(0, w), expr.Const(1, w)
	narrow, wide := extended(w)
	return []catalogCase{
		{RuleEvalConst, expr.Add(expr.Const(200, w), expr.Mul(expr.Const(3, w), expr.Const(77, w)))},
		{RuleRwAddSubCancelR, expr.Add(x, expr.Sub(y, x))},
		{RuleRwAddSubCancelL, expr.Add(expr.Sub(y, x), x)},
		{RuleRwSubAddCancelR, expr.Sub(expr.Add(x, y), x)},
		{RuleRwSubAddCancelL, expr.Sub(expr.Add(x, y), y)},
		{RuleRwSubSelf, expr.Sub(x, x)},
		{RuleRwAddZeroR, expr.Add(x, zero)},
		{RuleRwAddZeroL, expr.Add(zero, x)},
		{RuleRwSubZero, expr.Sub(x, zero)},
		{RuleRwAndZeroR, expr.And(x, zero)},
		{RuleRwAndZeroL, expr.And(zero, x)},
		{RuleRwAndSelf, expr.And(x, x)},
		{RuleRwAndConstFold, expr.And(expr.And(x, expr.Const(0xfe, w)), expr.Const(0x3f, w))},
		{RuleRwOrZeroR, expr.Or(x, zero)},
		{RuleRwOrZeroL, expr.Or(zero, x)},
		{RuleRwOrSelf, expr.Or(x, x)},
		{RuleRwXorSelf, expr.Xor(x, x)},
		{RuleRwXorZeroR, expr.Xor(x, zero)},
		{RuleRwXorZeroL, expr.Xor(zero, x)},
		{RuleRwMulZeroR, expr.Mul(x, zero)},
		{RuleRwMulZeroL, expr.Mul(zero, x)},
		{RuleRwMulOneR, expr.Mul(x, one)},
		{RuleRwMulOneL, expr.Mul(one, x)},
		{RuleRwShiftZero, expr.Shl(x, zero)},
		{RuleRwShiftZero, expr.Lshr(x, zero)},
		{RuleRwShiftZero, expr.Ashr(x, zero)},
		{RuleRwNotNot, expr.Not(expr.Not(x))},
		{RuleRwZExtZero, expr.ZExt(expr.Const(0, narrow.Width), wide.Width)},
		{RuleRwExtractZExt, expr.Extract(wide, 0, narrow.Width)},
	}
}

// boundCases builds matching arguments for the argument-only interval
// lemmas at width w, with shift amounts past the width included.
func boundCases(w uint8) []catalogCase {
	x, y := expr.Var(0, w), expr.Var(1, w)
	_, wide := extended(w)
	return []catalogCase{
		{RuleLemmaAndUleR, expr.And(x, expr.Const(0x2c, w))},
		{RuleLemmaAndUleL, expr.And(expr.Const(0x71, w), expr.Or(x, y))},
		{RuleLemmaUleMax, expr.Add(x, y)},
		{RuleLemmaZExtBound, wide},
		{RuleLemmaLshrBound, expr.Lshr(x, expr.Const(3, w))},
		{RuleLemmaLshrBound, expr.Lshr(expr.Mul(x, y), expr.Const(uint64(w)+2, w))},
		{RuleLemmaURemBound, expr.URem(x, expr.Const(10, w))},
		{RuleLemmaURemBound, expr.URem(expr.Sub(x, y), expr.Const(1, w))},
	}
}

// TestRewriteCatalogPositive checks every rewrite and argument-only
// bound rule at widths 8 and 64: the checker accepts its application to a
// matching term and rejects it on a non-matching one. With no second copy
// of the catalog to compare against, the width-8 cases are also judged by
// semantics: under all 65,536 assignments of x and y, each rewrite's two
// sides evaluate equal and each term is at most its bound.
func TestRewriteCatalogPositive(t *testing.T) {
	covered := map[RuleID]bool{}
	for _, w := range []uint8{8, 64} {
		for _, c := range append(rewriteCases(w), boundCases(w)...) {
			covered[c.rule] = true
			mustApply(t, c.rule.String(), Step{Rule: c.rule, Args: []*expr.Expr{c.arg}})
			// The same rule on a plain variable never matches (on a
			// boolean one for lemma_ule_max, which bounds any bit-vector).
			bad := expr.Var(9, w)
			if c.rule == RuleLemmaUleMax {
				bad = expr.Var(9, 1)
			}
			mustFail(t, c.rule.String()+"-mismatch", Step{Rule: c.rule, Args: []*expr.Expr{bad}})
			if w == 8 {
				checkSemantics(t, c)
			}
		}
	}
	for r := RuleInvalid; r < NumRules; r++ {
		if (rewrites[r] != nil || bounds[r] != nil) && !covered[r] {
			t.Errorf("%s has no case", r)
		}
	}
}

// checkSemantics evaluates a width-8 case under every assignment of x
// and y: a rewrite's sides must agree and a bound must hold.
func checkSemantics(t *testing.T, c catalogCase) {
	t.Helper()
	var holds func(env func(uint32) uint64) bool
	if rhs, ok := Rewrite(c.rule, c.arg); ok {
		holds = func(env func(uint32) uint64) bool { return c.arg.Eval(env) == rhs.Eval(env) }
	} else if bound, ok := UpperBound(c.rule, c.arg); ok {
		holds = func(env func(uint32) uint64) bool { return c.arg.Eval(env) <= bound }
	} else {
		t.Fatalf("%s does not match %s", c.rule, c.arg)
	}
	for xy := 0; xy < 1<<16; xy++ {
		env := func(id uint32) uint64 { return uint64(xy>>(8*id)) & 0xff }
		if !holds(env) {
			t.Fatalf("%s is unsound on %s at x=%d y=%d", c.rule, c.arg, xy&0xff, xy>>8)
		}
	}
}

// TestCatalogRejectsNonRules: Rewrite and UpperBound answer only for
// their own rules.
func TestCatalogRejectsNonRules(t *testing.T) {
	x := expr.Var(0, 8)
	for _, r := range []RuleID{RuleInvalid, RuleAssume, RuleLemmaUleTrans, RuleResolve, NumRules, NumRules + 7} {
		if _, ok := Rewrite(r, expr.Add(x, expr.Const(0, 8))); ok {
			t.Errorf("Rewrite answered for %s", r)
		}
		if _, ok := UpperBound(r, expr.And(x, expr.Const(1, 8))); ok {
			t.Errorf("UpperBound answered for %s", r)
		}
	}
}

func TestLemmasPositive(t *testing.T) {
	x := expr.Var(0, 64)
	c15 := expr.Const(15, 64)
	c20 := expr.Const(20, 64)
	masked := expr.And(x, c15)

	// ⊢ (bvule (bvand x 15) 15)
	mustApply(t, "and_ule_r", Step{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{masked}})
	mustApply(t, "and_ule_l", Step{Rule: RuleLemmaAndUleL, Args: []*expr.Expr{expr.And(c15, x)}})
	mustApply(t, "ule_max", Step{Rule: RuleLemmaUleMax, Args: []*expr.Expr{x}})
	mustApply(t, "zero_ule", Step{Rule: RuleLemmaZeroUle, Args: []*expr.Expr{x}})
	mustApply(t, "zext_bound", Step{Rule: RuleLemmaZExtBound,
		Args: []*expr.Expr{expr.ZExt(expr.Var(1, 32), 64)}})
	mustApply(t, "lshr_bound", Step{Rule: RuleLemmaLshrBound,
		Args: []*expr.Expr{expr.Lshr(x, expr.Const(4, 64))}})
	mustApply(t, "ule_const", Step{Rule: RuleLemmaUleConst, Args: []*expr.Expr{c15, c20}})

	// Premise-based lemmas: build (bvule masked 15) first.
	base := Step{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{masked}} // step 1
	mustApply(t, "ule_trans",
		base,
		Step{Rule: RuleLemmaUleConst, Args: []*expr.Expr{c15, c20}}, // step 2
		Step{Rule: RuleLemmaUleTrans, Premises: []uint32{1, 2}},     // masked <= 20
	)
	mustApply(t, "ule_add",
		base,
		Step{Rule: RuleLemmaUleConst, Args: []*expr.Expr{c15, c15}},
		Step{Rule: RuleLemmaUleAdd, Premises: []uint32{1, 2}}, // masked + 15 <= 30
	)
	mustApply(t, "ule_shl",
		base,
		Step{Rule: RuleLemmaUleShl, Premises: []uint32{1}, Args: []*expr.Expr{expr.Const(2, 64)}},
	)
	mustApply(t, "ule_and_mono",
		base,
		Step{Rule: RuleLemmaUleAndMono, Premises: []uint32{1},
			Args: []*expr.Expr{expr.And(masked, expr.Var(1, 64))}},
	)
	mustApply(t, "eq_bound",
		Step{Rule: RuleEvalConst, Args: []*expr.Expr{c15}}, // (= 15 15)
		Step{Rule: RuleLemmaEqBound, Premises: []uint32{1}},
	)
	// zext_mono: premise bound on a 32-bit term, conclusion on its zext.
	m32 := expr.And(expr.Var(1, 32), expr.Const(0xf, 32))
	mustApply(t, "zext_mono",
		Step{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{m32}},
		Step{Rule: RuleLemmaZExtMono, Premises: []uint32{1},
			Args: []*expr.Expr{expr.ZExt(m32, 64)}},
	)
}

func TestNotComparisonElims(t *testing.T) {
	// Build ¬(bvult a b) via structural decomposition is hard without a
	// matching condition; instead check the rules reject wrong premises
	// and accept assembled ones through an implication-shaped condition.
	x := expr.Var(0, 64)
	cond := expr.Implies(
		expr.BoolNot(expr.Ult(expr.Const(10, 64), x)), // ¬(10 < x), i.e. x <= 10
		expr.Ule(x, expr.Const(10, 64)),
	)
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume}, // ¬(P ⇒ Q)
		{Rule: RuleNotImplies1, Premises: []uint32{0}}, // ⊢ ¬(10 < x)
		{Rule: RuleNotImplies2, Premises: []uint32{0}}, // ⊢ ¬(x <= 10)
		{Rule: RuleNotUltElim, Premises: []uint32{1}},  // ⊢ (x <= 10)
		{Rule: RuleContradiction, Premises: []uint32{3, 2}},
	}}
	if err := Check(cond, p); err != nil {
		t.Fatalf("not_ult_elim refutation rejected: %v", err)
	}
	// not_ule_elim + ult_ule: from ¬(x <= 5) derive 5 < x, weaken to
	// 5 <= x. Without the weakening the checker must refuse: 5 < x does
	// not contradict ¬(5 <= x) syntactically.
	cond2 := expr.Implies(
		expr.BoolNot(expr.Ule(x, expr.Const(5, 64))),
		expr.Ule(expr.Const(5, 64), x),
	)
	good := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleNotImplies1, Premises: []uint32{0}}, // ¬(x <= 5)
		{Rule: RuleNotImplies2, Premises: []uint32{0}}, // ¬(5 <= x)
		{Rule: RuleNotUleElim, Premises: []uint32{1}},  // (5 < x)
		{Rule: RuleLemmaUltUle, Premises: []uint32{3}}, // (5 <= x)
		{Rule: RuleContradiction, Premises: []uint32{4, 2}},
	}}
	if err := Check(cond2, good); err != nil {
		t.Fatalf("not_ule_elim refutation rejected: %v", err)
	}
	bad := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleNotImplies1, Premises: []uint32{0}},
		{Rule: RuleNotImplies2, Premises: []uint32{0}},
		{Rule: RuleNotUleElim, Premises: []uint32{1}},
		// Contradicting (5 < x) against ¬(5 <= x) is NOT complementary.
		{Rule: RuleContradiction, Premises: []uint32{3, 2}},
	}}
	if err := Check(cond2, bad); err == nil {
		t.Fatal("mismatched contradiction accepted")
	}
}
