package solver

import (
	"math/rand"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/proof"
)

// proveAndCheck runs the prover and validates the proof with the
// kernel-side checker, returning the outcome.
func proveAndCheck(t *testing.T, cond *expr.Expr, opts Options) *Outcome {
	t.Helper()
	out, err := Prove(nil, cond, opts)
	if err != nil {
		t.Fatalf("Prove: %v", err)
	}
	if out.Proven {
		if err := proof.Check(cond, out.Proof); err != nil {
			t.Fatalf("checker rejected the prover's proof: %v\ncond: %s", err, cond)
		}
	}
	return out
}

func mustProve(t *testing.T, cond *expr.Expr, wantTier Tier) *Outcome {
	t.Helper()
	out := proveAndCheck(t, cond, Options{})
	if !out.Proven {
		t.Fatalf("expected valid condition, got counterexample %v\ncond: %s", out.Counterexample, cond)
	}
	if wantTier != TierNone && out.Tier != wantTier {
		t.Fatalf("expected tier %s, got %s", wantTier, out.Tier)
	}
	return out
}

func mustRefute(t *testing.T, cond *expr.Expr) *Outcome {
	t.Helper()
	out := proveAndCheck(t, cond, Options{})
	if out.Proven {
		t.Fatalf("expected counterexample for %s", cond)
	}
	if out.Counterexample == nil {
		t.Fatalf("missing counterexample")
	}
	// The counterexample must actually falsify the condition.
	if cond.Eval(func(id uint32) uint64 { return out.Counterexample[id] }) != 0 {
		t.Fatalf("counterexample %v does not falsify %s", out.Counterexample, cond)
	}
	return out
}

// fig2Cond builds the paper's Figure 2 refinement condition:
// (sym&0xf) + (0xf - (sym&0xf)) <= hi.
func fig2Cond(hi uint64) *expr.Expr {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m))
	return tab.Ule(e, tab.Const(hi, 64))
}

func TestFigure2RewriteTier(t *testing.T) {
	out := mustProve(t, fig2Cond(15), TierRewrite)
	// The rewrite tier must produce a compact proof (paper: avg 541 B,
	// the Figure 3 proof has 9 steps).
	if n := len(out.Proof.Steps); n > 20 {
		t.Errorf("rewrite proof unexpectedly large: %d steps", n)
	}
}

func TestFigure2LooseBoundStillValid(t *testing.T) {
	mustProve(t, fig2Cond(16), TierNone)
	mustProve(t, fig2Cond(255), TierNone)
}

func TestFigure2TightBoundRefuted(t *testing.T) {
	out := mustRefute(t, fig2Cond(14))
	// Every assignment evaluates to 15, so any counterexample works; the
	// eval check in mustRefute already validated it.
	_ = out
}

func TestMaskBoundRewrite(t *testing.T) {
	tab := expr.NewTable(0)
	// (x & 0xf) <= 15 — the Listing 1/quickstart pattern.
	x := tab.Var(0, 64)
	mustProve(t, tab.Ule(tab.And(x, tab.Const(0xf, 64)), tab.Const(15, 64)), TierRewrite)
	// (x & 0xf) <= 20 needs a trans step.
	mustProve(t, tab.Ule(tab.And(x, tab.Const(0xf, 64)), tab.Const(20, 64)), TierRewrite)
}

func TestShiftedMaskBound(t *testing.T) {
	tab := expr.NewTable(0)
	// ((x & 0xf) << 1) <= 30.
	x := tab.Var(0, 64)
	e := tab.Shl(tab.And(x, tab.Const(0xf, 64)), tab.Const(1, 64))
	mustProve(t, tab.Ule(e, tab.Const(30, 64)), TierRewrite)
	mustRefute(t, tab.Ule(e, tab.Const(29, 64)))
}

func TestSumOfBoundedParts(t *testing.T) {
	tab := expr.NewTable(0)
	// (x & 0xf) + (y & 0x7) <= 22.
	x, y := tab.Var(0, 64), tab.Var(1, 64)
	e := tab.Add(tab.And(x, tab.Const(0xf, 64)), tab.And(y, tab.Const(7, 64)))
	mustProve(t, tab.Ule(e, tab.Const(22, 64)), TierRewrite)
	mustRefute(t, tab.Ule(e, tab.Const(21, 64)))
}

func TestConjunctionGoal(t *testing.T) {
	tab := expr.NewTable(0)
	x := tab.Var(0, 64)
	m := tab.And(x, tab.Const(0xf, 64))
	cond := tab.BoolAnd(
		tab.Ule(tab.Const(0, 64), m),
		tab.Ule(m, tab.Const(15, 64)),
	)
	mustProve(t, cond, TierRewrite)
}

func TestImplicationNeedsPathConstraint(t *testing.T) {
	tab := expr.NewTable(0)
	// (x <= 10) => (x + 5 <= 15): the rewrite tier harvests the
	// hypothesis as a premise fact and closes the goal with ule_add.
	x := tab.Var(0, 64)
	cond := tab.Implies(
		tab.Ule(x, tab.Const(10, 64)),
		tab.Ule(tab.Add(x, tab.Const(5, 64)), tab.Const(15, 64)),
	)
	mustProve(t, cond, TierRewrite)
	// And with an insufficient bound, a counterexample.
	bad := tab.Implies(
		tab.Ule(x, tab.Const(10, 64)),
		tab.Ule(tab.Add(x, tab.Const(5, 64)), tab.Const(14, 64)),
	)
	mustRefute(t, bad)
}

func TestUnreachablePathVacuousTruth(t *testing.T) {
	tab := expr.NewTable(0)
	// Paper Listing 8: the path constraint is unsatisfiable, so the
	// condition holds vacuously. w = (x s>> 31) & -134 (32-bit); path:
	// w s<= -1 and w != -136; goal: anything, here 0 <= 1.
	// w can only be 0 or -134, so the path taking both "w s<= -1" and
	// "w == -136" is infeasible and the condition holds vacuously.
	x := tab.Var(0, 32)
	w := tab.And(tab.Ashr(x, tab.Const(31, 32)), tab.Const(uint64(uint32(0xffffff7a)), 32))
	pathC := tab.BoolAnd(
		tab.Sle(w, tab.Const(uint64(uint32(0xffffffff)), 32)), // w s<= -1
		tab.Eq(w, tab.Const(uint64(uint32(0xffffff78)), 32)),  // w == -136
	)
	cond := tab.Implies(pathC, tab.Ule(tab.Var(1, 64), tab.Const(0, 64)))
	mustProve(t, cond, TierBitblast)
}

func TestRegisterAliasCondition(t *testing.T) {
	tab := expr.NewTable(0)
	// Paper Listing 9: w1 and w5 share a source; (x&0xffff) <= 0x3fa8
	// implies x&0xffff used as size stays within 0x3fa8.
	x := tab.Var(0, 32)
	masked := tab.And(x, tab.Const(0xffff, 32))
	cond := tab.Implies(
		tab.Ule(masked, tab.Const(0x3fa8, 32)),
		tab.Ule(masked, tab.Const(0x4000, 32)),
	)
	mustProve(t, cond, TierNone)
}

func TestDisableRewriteTierAblation(t *testing.T) {
	tab := expr.NewTable(0)
	// (x & 0xf) + (y & 0xf) <= 30: the adder's carry chain defeats pure
	// gate-level constant folding, forcing a real resolution refutation.
	x, y := tab.Var(0, 16), tab.Var(1, 16)
	sum := tab.Add(tab.And(x, tab.Const(0xf, 16)), tab.And(y, tab.Const(0xf, 16)))
	cond := tab.Ule(sum, tab.Const(30, 16))
	out := proveAndCheck(t, cond, Options{DisableRewriteTier: true})
	if !out.Proven || out.Tier != TierBitblast {
		t.Fatalf("ablation: expected bitblast proof, got tier %s proven=%v", out.Tier, out.Proven)
	}
	rw := mustProve(t, cond, TierRewrite)
	if len(out.Proof.Steps) <= len(rw.Proof.Steps) {
		t.Errorf("expected bitblast proof (%d steps) to exceed rewrite proof (%d steps)",
			len(out.Proof.Steps), len(rw.Proof.Steps))
	}
}

func TestRandomValidityDifferential(t *testing.T) {
	// Random small-width conditions: the prover's verdict must agree with
	// exhaustive evaluation, and every proof must check.
	rng := rand.New(rand.NewSource(31337))
	for iter := 0; iter < 60; iter++ {
		tab := expr.NewTable(0)
		x := tab.Var(0, 8)
		mask := uint64(rng.Intn(256))
		add := uint64(rng.Intn(256))
		hi := uint64(rng.Intn(256))
		e := tab.Add(tab.And(x, tab.Const(mask, 8)), tab.Const(add, 8))
		cond := tab.Ule(e, tab.Const(hi, 8))
		valid := true
		for v := 0; v < 256; v++ {
			if cond.Eval(func(uint32) uint64 { return uint64(v) }) == 0 {
				valid = false
				break
			}
		}
		out := proveAndCheck(t, cond, Options{})
		if out.Proven != valid {
			t.Fatalf("iter %d: prover says %v, truth is %v for %s", iter, out.Proven, valid, cond)
		}
		if !valid {
			if cond.Eval(func(uint32) uint64 { return out.Counterexample[0] }) != 0 {
				t.Fatalf("bogus counterexample")
			}
		}
	}
}

func TestMalformedCondition(t *testing.T) {
	tab := expr.NewTable(0)
	if _, err := Prove(nil, tab.Var(0, 64), Options{}); err == nil {
		t.Fatal("expected error for non-boolean condition")
	}
	if _, err := Prove(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for nil condition")
	}
}
