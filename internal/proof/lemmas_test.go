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

// trivCond builds, in a new table, the trivially true condition whose
// refutation skeleton any step list can ride along with.
func trivCond() *expr.Expr {
	tab := expr.NewTable(0)
	return tab.Ule(tab.Const(0, 8), tab.Const(0, 8))
}

// checkSteps wraps the given steps with a closing contradiction against
// the trivially-true condition and runs the checker. The steps' terms
// are from outside the condition's table, so the checker interns them.
func checkSteps(t *testing.T, steps []Step) error {
	t.Helper()
	cond := trivCond()
	// skeleton: s0 assume ⊢ ¬C; then user steps; then:
	//   eval (= C true); not_true_elim(¬C, (= C true)) ⊢ false
	all := append([]Step{{Rule: RuleAssume}}, steps...)
	evalIdx := uint32(len(all))
	all = append(all, Step{Rule: RuleEvalConst, Args: []*expr.Expr{cond}})
	all = append(all, Step{Rule: RuleNotTrueElim, Premises: []uint32{0, evalIdx}})
	return Check(cond, &Proof{Steps: all})
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
func extended(tab *expr.Table, w uint8) (narrow, wide *expr.Expr) {
	narrow = tab.Var(0, w)
	if w == 64 {
		narrow = tab.Extract(narrow, 0, 32)
	}
	return narrow, tab.ZExt(narrow, min(2*w, 64))
}

// rewriteCases builds one matching argument per rewrite rule at width w.
func rewriteCases(tab *expr.Table, w uint8) []catalogCase {
	x, y := tab.Var(0, w), tab.Var(1, w)
	zero, one := tab.Const(0, w), tab.Const(1, w)
	narrow, wide := extended(tab, w)
	return []catalogCase{
		{RuleEvalConst, tab.Add(tab.Const(200, w), tab.Mul(tab.Const(3, w), tab.Const(77, w)))},
		{RuleRwAddSubCancelR, tab.Add(x, tab.Sub(y, x))},
		{RuleRwAddSubCancelL, tab.Add(tab.Sub(y, x), x)},
		{RuleRwSubAddCancelR, tab.Sub(tab.Add(x, y), x)},
		{RuleRwSubAddCancelL, tab.Sub(tab.Add(x, y), y)},
		{RuleRwSubSelf, tab.Sub(x, x)},
		{RuleRwAddZeroR, tab.Add(x, zero)},
		{RuleRwAddZeroL, tab.Add(zero, x)},
		{RuleRwSubZero, tab.Sub(x, zero)},
		{RuleRwAndZeroR, tab.And(x, zero)},
		{RuleRwAndZeroL, tab.And(zero, x)},
		{RuleRwAndSelf, tab.And(x, x)},
		{RuleRwAndConstFold, tab.And(tab.And(x, tab.Const(0xfe, w)), tab.Const(0x3f, w))},
		{RuleRwOrZeroR, tab.Or(x, zero)},
		{RuleRwOrZeroL, tab.Or(zero, x)},
		{RuleRwOrSelf, tab.Or(x, x)},
		{RuleRwXorSelf, tab.Xor(x, x)},
		{RuleRwXorZeroR, tab.Xor(x, zero)},
		{RuleRwXorZeroL, tab.Xor(zero, x)},
		{RuleRwMulZeroR, tab.Mul(x, zero)},
		{RuleRwMulZeroL, tab.Mul(zero, x)},
		{RuleRwMulOneR, tab.Mul(x, one)},
		{RuleRwMulOneL, tab.Mul(one, x)},
		{RuleRwShiftZero, tab.Shl(x, zero)},
		{RuleRwShiftZero, tab.Lshr(x, zero)},
		{RuleRwShiftZero, tab.Ashr(x, zero)},
		{RuleRwNotNot, tab.Not(tab.Not(x))},
		{RuleRwZExtZero, tab.ZExt(tab.Const(0, narrow.Width), wide.Width)},
		{RuleRwExtractZExt, tab.Extract(wide, 0, narrow.Width)},
	}
}

// boundCases builds matching arguments for the argument-only interval
// lemmas at width w, with shift amounts past the width included.
func boundCases(tab *expr.Table, w uint8) []catalogCase {
	x, y := tab.Var(0, w), tab.Var(1, w)
	_, wide := extended(tab, w)
	return []catalogCase{
		{RuleLemmaAndUleR, tab.And(x, tab.Const(0x2c, w))},
		{RuleLemmaAndUleL, tab.And(tab.Const(0x71, w), tab.Or(x, y))},
		{RuleLemmaUleMax, tab.Add(x, y)},
		{RuleLemmaZExtBound, wide},
		{RuleLemmaLshrBound, tab.Lshr(x, tab.Const(3, w))},
		{RuleLemmaLshrBound, tab.Lshr(tab.Mul(x, y), tab.Const(uint64(w)+2, w))},
		{RuleLemmaURemBound, tab.URem(x, tab.Const(10, w))},
		{RuleLemmaURemBound, tab.URem(tab.Sub(x, y), tab.Const(1, w))},
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
		tab := expr.NewTable(0)
		for _, c := range append(rewriteCases(tab, w), boundCases(tab, w)...) {
			covered[c.rule] = true
			mustApply(t, c.rule.String(), Step{Rule: c.rule, Args: []*expr.Expr{c.arg}})
			// The same rule on a plain variable never matches (on a
			// boolean one for lemma_ule_max, which bounds any bit-vector).
			bad := tab.Var(9, w)
			if c.rule == RuleLemmaUleMax {
				bad = tab.Var(9, 1)
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
	tab := expr.NewTable(0)
	x := tab.Var(0, 8)
	for _, r := range []RuleID{RuleInvalid, RuleAssume, RuleLemmaUleTrans, RuleResolve, NumRules, NumRules + 7} {
		if _, ok := Rewrite(r, tab.Add(x, tab.Const(0, 8))); ok {
			t.Errorf("Rewrite answered for %s", r)
		}
		if _, ok := UpperBound(r, tab.And(x, tab.Const(1, 8))); ok {
			t.Errorf("UpperBound answered for %s", r)
		}
	}
}

func TestLemmasPositive(t *testing.T) {
	tab := expr.NewTable(0)
	x := tab.Var(0, 64)
	c15 := tab.Const(15, 64)
	c20 := tab.Const(20, 64)
	masked := tab.And(x, c15)

	// ⊢ (bvule (bvand x 15) 15)
	mustApply(t, "and_ule_r", Step{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{masked}})
	mustApply(t, "and_ule_l", Step{Rule: RuleLemmaAndUleL, Args: []*expr.Expr{tab.And(c15, x)}})
	mustApply(t, "ule_max", Step{Rule: RuleLemmaUleMax, Args: []*expr.Expr{x}})
	mustApply(t, "zero_ule", Step{Rule: RuleLemmaZeroUle, Args: []*expr.Expr{x}})
	mustApply(t, "zext_bound", Step{Rule: RuleLemmaZExtBound,
		Args: []*expr.Expr{tab.ZExt(tab.Var(1, 32), 64)}})
	mustApply(t, "lshr_bound", Step{Rule: RuleLemmaLshrBound,
		Args: []*expr.Expr{tab.Lshr(x, tab.Const(4, 64))}})
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
		Step{Rule: RuleLemmaUleShl, Premises: []uint32{1}, Args: []*expr.Expr{tab.Const(2, 64)}},
	)
	mustApply(t, "ule_and_mono",
		base,
		Step{Rule: RuleLemmaUleAndMono, Premises: []uint32{1},
			Args: []*expr.Expr{tab.And(masked, tab.Var(1, 64))}},
	)
	mustApply(t, "eq_bound",
		Step{Rule: RuleEvalConst, Args: []*expr.Expr{c15}}, // (= 15 15)
		Step{Rule: RuleLemmaEqBound, Premises: []uint32{1}},
	)
	// zext_mono: premise bound on a 32-bit term, conclusion on its zext.
	m32 := tab.And(tab.Var(1, 32), tab.Const(0xf, 32))
	mustApply(t, "zext_mono",
		Step{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{m32}},
		Step{Rule: RuleLemmaZExtMono, Premises: []uint32{1},
			Args: []*expr.Expr{tab.ZExt(m32, 64)}},
	)
}

func TestNotComparisonElims(t *testing.T) {
	tab := expr.NewTable(0)
	// Build ¬(bvult a b) via structural decomposition is hard without a
	// matching condition; instead check the rules reject wrong premises
	// and accept assembled ones through an implication-shaped condition.
	x := tab.Var(0, 64)
	cond := tab.Implies(
		tab.BoolNot(tab.Ult(tab.Const(10, 64), x)), // ¬(10 < x), i.e. x <= 10
		tab.Ule(x, tab.Const(10, 64)),
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
	cond2 := tab.Implies(
		tab.BoolNot(tab.Ule(x, tab.Const(5, 64))),
		tab.Ule(tab.Const(5, 64), x),
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
