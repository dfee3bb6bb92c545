package solver

import (
	"math/rand"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/proof"
)

// randSimpTerm builds random terms biased toward the simplifier's
// patterns (cancellations, zero/one identities, shared subterms), in
// the variables' table.
func randSimpTerm(rng *rand.Rand, vars []*expr.Expr, width uint8, depth int) *expr.Expr {
	tab := vars[0].Table()
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return vars[rng.Intn(len(vars))]
		}
		// Bias constants toward 0 and 1 to trigger identity rewrites.
		switch rng.Intn(4) {
		case 0:
			return tab.Const(0, width)
		case 1:
			return tab.Const(1, width)
		default:
			return tab.Const(rng.Uint64(), width)
		}
	}
	a := randSimpTerm(rng, vars, width, depth-1)
	b := randSimpTerm(rng, vars, width, depth-1)
	switch rng.Intn(10) {
	case 0:
		// a + (b - a): the cancellation pattern.
		return tab.Add(a, tab.Sub(b, a))
	case 1:
		// (a + b) - b
		return tab.Sub(tab.Add(a, b), b)
	case 2:
		return tab.And(a, a)
	case 3:
		return tab.Xor(a, a)
	default:
		ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpAnd, expr.OpOr, expr.OpXor}
		return tab.Bin(ops[rng.Intn(len(ops))], a, b)
	}
}

// TestSimplifySemanticsPreserved: the simplifier's output must evaluate
// identically to its input for random assignments, and every emitted
// equality chain must survive the kernel checker when embedded in a
// refutation skeleton.
func TestSimplifySemanticsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for iter := 0; iter < 200; iter++ {
		width := []uint8{8, 32, 64}[rng.Intn(3)]
		src := expr.NewTable(0)
		vars := []*expr.Expr{src.Var(0, width), src.Var(1, width)}
		// The builder works on members of the round's table.
		b := &builder{tab: expr.NewTable(0)}
		term, err := b.tab.Intern(randSimpTerm(rng, vars, width, 3))
		if err != nil {
			t.Fatal(err)
		}
		b.add(proof.RuleAssume, nil)
		simp := b.simplify(term)

		for probe := 0; probe < 16; probe++ {
			a0, a1 := rng.Uint64(), rng.Uint64()
			env := func(id uint32) uint64 {
				if id == 0 {
					return a0
				}
				return a1
			}
			if term.Eval(env) != simp.term.Eval(env) {
				t.Fatalf("simplify changed semantics:\n  in:  %s\n  out: %s", term, simp.term)
			}
		}
		if !simp.changed {
			continue
		}
		// The emitted steps must check: build "cond := (term = simplified)
		// is not violated" — package the equality chain into a refutation
		// of ¬(bvule 0 0) style skeleton is awkward; instead check the
		// steps by constructing a condition the chain proves:
		// cond = true via an eval ... simplest: verify by replay through
		// a full prover call on (term == simplified) when ground-free
		// widths are small.
		if width == 8 && iter%4 == 0 {
			cond := b.tab.Eq(term, simp.term)
			out, err := Prove(nil, cond, Options{})
			if err != nil {
				t.Fatalf("prove: %v", err)
			}
			if !out.Proven {
				t.Fatalf("simplifier claims %s = %s but the complete tier found a counterexample %v",
					term, simp.term, out.Counterexample)
			}
			if err := proof.Check(cond, out.Proof); err != nil {
				t.Fatalf("checker rejected: %v", err)
			}
		}
	}
}

// TestSimplifyChainChecks embeds the equality chain in the real proof
// skeleton: for a random width-8 term t over two variables it computes
// t's exact maximum over all 65,536 assignments, proves and checks
// (bvule t max), and, when max is neither 0 nor 0xff, requires a
// counterexample for (bvule t max-1).
func TestSimplifyChainChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	refuted := 0
	for iter := 0; iter < 80; iter++ {
		const width = 8
		tab := expr.NewTable(0)
		vars := []*expr.Expr{tab.Var(0, width), tab.Var(1, width)}
		term := randSimpTerm(rng, vars, width, 3)
		var a0, a1 uint64
		env := func(id uint32) uint64 {
			if id == 0 {
				return a0
			}
			return a1
		}
		hi := uint64(0)
		for a0 = 0; a0 < 256; a0++ {
			for a1 = 0; a1 < 256; a1++ {
				hi = max(hi, term.Eval(env))
			}
		}
		cond := tab.Ule(term, tab.Const(hi, width))
		out, err := Prove(nil, cond, Options{})
		if err != nil || !out.Proven {
			t.Fatalf("%s <= %#x must prove: %v", term, hi, err)
		}
		if err := proof.Check(cond, out.Proof); err != nil {
			t.Fatalf("checker rejected the proof of %s <= %#x: %v", term, hi, err)
		}
		if hi == 0 || hi == expr.Mask(width) {
			continue
		}
		out, err = Prove(nil, tab.Ule(term, tab.Const(hi-1, width)), Options{})
		if err != nil || out.Proven || out.Counterexample == nil {
			t.Fatalf("%s <= %#x is false, want a counterexample: %v", term, hi-1, err)
		}
		refuted++
	}
	t.Logf("%d of 80 maxima refuted one below", refuted)
	if refuted == 0 {
		t.Error("no term had a maximum strictly inside the width")
	}
}

func TestTopRewriteAgreesWithChecker(t *testing.T) {
	// Every rewrite topRewrite proposes must be accepted by the checker's
	// pattern verification (they share the catalog).
	rng := rand.New(rand.NewSource(111))
	for iter := 0; iter < 2000; iter++ {
		width := []uint8{8, 64}[rng.Intn(2)]
		tab := expr.NewTable(0)
		vars := []*expr.Expr{tab.Var(0, width), tab.Var(1, width)}
		term := randSimpTerm(rng, vars, width, 3)
		rule, next := topRewrite(term)
		if rule == proof.RuleInvalid {
			continue
		}
		p := &proof.Proof{Steps: []proof.Step{
			{Rule: proof.RuleAssume},
			{Rule: rule, Args: []*expr.Expr{term}},
			// No step concludes false, so the check fails at stage 3;
			// the error says whether step 1 was accepted first.
		}}
		err := proof.Check(tab.Ule(tab.Const(0, 8), tab.Const(0, 8)), p)
		if err == nil {
			t.Fatal("proof without contradiction unexpectedly accepted")
		}
		// The failure must be the missing contradiction, not the rewrite.
		if got := err.Error(); !contains(got, "final step") {
			t.Fatalf("rewrite %s on %s rejected by checker: %v (rhs %s)", rule, term, err, next)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
