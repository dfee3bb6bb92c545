package proof

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bcf/internal/expr"
)

// fig2Cond is the paper's Figure 2 refinement condition, in a new table,
// so each check of it starts from the condition's nodes alone.
func fig2Cond(hi uint64) *expr.Expr {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m))
	return tab.Ule(e, tab.Const(hi, 64))
}

// handProof builds the Figure 3-style proof for fig2Cond(15) by hand:
// assume ¬C; sub_elim collapses the sum to 0xf; congruence rewrites the
// comparison; eval decides it; the contradiction discharges ¬C. Its
// terms are in a table of their own, which the checker interns from.
func handProof() *Proof {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m)) // (bvadd m (bvsub 0xf m))
	pred := tab.Ule(e, tab.Const(15, 64))           // C

	return &Proof{Steps: []Step{
		// s0: assume ⊢ ¬C
		{Rule: RuleAssume},
		// s1: sub_elim ⊢ (= e 0xf)
		{Rule: RuleRwAddSubCancelR, Args: []*expr.Expr{e}},
		// s2: cong ⊢ (= (bvule e 15) (bvule 0xf 15))
		{Rule: RuleCong, Premises: []uint32{1}, Args: []*expr.Expr{pred, tab.Const(0, 8)}},
		// s3: eval ⊢ (= (bvule 0xf 15) true)
		{Rule: RuleEvalConst, Args: []*expr.Expr{tab.Ule(tab.Const(0xf, 64), tab.Const(15, 64))}},
		// s4: trans ⊢ (= (bvule e 15) true) = (= C true)
		{Rule: RuleTrans, Premises: []uint32{2, 3}},
		// s5: not_true_elim(¬C, (= C true)) ⊢ false
		{Rule: RuleNotTrueElim, Premises: []uint32{0, 4}},
	}}
}

func TestHandWrittenFigure3Proof(t *testing.T) {
	if err := Check(fig2Cond(15), handProof()); err != nil {
		t.Fatalf("hand-written proof rejected: %v", err)
	}
}

func TestProofDoesNotTransferToOtherConditions(t *testing.T) {
	// The same proof must NOT establish the false condition <= 14: the
	// assume step binds to the stored condition, so every later pattern
	// breaks.
	if err := Check(fig2Cond(14), handProof()); err == nil {
		t.Fatal("proof for <=15 accepted for the false condition <=14")
	}
}

func TestEmptyAndOversizedProofs(t *testing.T) {
	if err := Check(fig2Cond(15), &Proof{}); err == nil {
		t.Fatal("empty proof accepted")
	}
	lim := defaultLimits
	lim.MaxSteps = 3
	if _, err := check(fig2Cond(15), handProof(), lim); err == nil {
		t.Fatal("oversized proof accepted under tight limits")
	}
}

func TestForwardReferenceRejected(t *testing.T) {
	p := &Proof{Steps: []Step{
		{Rule: RuleContradiction, Premises: []uint32{0, 1}},
		{Rule: RuleAssume},
	}}
	if err := Check(fig2Cond(15), p); err == nil {
		t.Fatal("forward premise reference accepted")
	}
}

func TestInvalidRuleRejected(t *testing.T) {
	p := handProof()
	p.Steps[1].Rule = RuleID(9999)
	if err := Check(fig2Cond(15), p); err == nil {
		t.Fatal("invalid rule id accepted")
	}
	p2 := handProof()
	p2.Steps[1].Rule = RuleInvalid
	if err := Check(fig2Cond(15), p2); err == nil {
		t.Fatal("rule 0 accepted")
	}
}

// TestRuleTable: every id between RuleInvalid and NumRules is either
// reserved, and a step that uses it fails stage 1 as an invalid rule,
// or named, and a step that uses it reaches the rule's handler.
func TestRuleTable(t *testing.T) {
	named := 0
	for r := RuleInvalid + 1; r < NumRules; r++ {
		p := &Proof{Steps: []Step{{Rule: RuleAssume}, {Rule: r}}}
		err := Check(fig2Cond(15), p)
		if !r.Valid() {
			if err == nil || !strings.Contains(err.Error(), "step 1: invalid rule") {
				t.Errorf("reserved id %d: %v, want an invalid rule at step 1", r, err)
			}
			continue
		}
		named++
		if strings.HasPrefix(r.String(), "rule(") {
			t.Errorf("id %d is valid but has no name", r)
		}
		if err == nil || strings.Contains(err.Error(), "unhandled rule") {
			t.Errorf("%s: %v, want its handler's refusal", r, err)
		}
	}
	t.Logf("%d named rules, %d reserved ids", named, int(NumRules)-1-named)
}

func TestPatternMismatchRejected(t *testing.T) {
	tab := expr.NewTable(0)
	// sub_elim applied to a term that is not (bvadd a (bvsub b a)).
	wrong := tab.Add(tab.Var(0, 64), tab.Const(1, 64))
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleRwAddSubCancelR, Args: []*expr.Expr{wrong}},
	}}
	if err := Check(fig2Cond(15), p); err == nil {
		t.Fatal("mismatched rewrite accepted")
	}
}

func TestNonFalseFinalStepRejected(t *testing.T) {
	p := handProof()
	p.Steps = p.Steps[:5] // drop the contradiction
	if err := Check(fig2Cond(15), p); err == nil {
		t.Fatal("proof without contradiction accepted")
	}
}

func TestEvalRejectsNonGround(t *testing.T) {
	tab := expr.NewTable(0)
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleEvalConst, Args: []*expr.Expr{tab.Ule(tab.Var(0, 64), tab.Const(1, 64))}},
	}}
	if err := Check(fig2Cond(15), p); err == nil {
		t.Fatal("eval of non-ground term accepted")
	}
}

func TestCongChildMismatchRejected(t *testing.T) {
	tab := expr.NewTable(0)
	pred := fig2Cond(15)
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleRwAddZeroR, Args: []*expr.Expr{tab.Add(tab.Var(3, 64), tab.Const(0, 64))}},
		// cong claims child 0 of pred is (bvadd v3 0), which it is not.
		{Rule: RuleCong, Premises: []uint32{1}, Args: []*expr.Expr{pred, tab.Const(0, 8)}},
	}}
	if err := Check(pred, p); err == nil {
		t.Fatal("cong with mismatched child accepted")
	}
}

func TestLemmaSideConditions(t *testing.T) {
	tab := expr.NewTable(0)
	x := tab.Var(0, 8)
	cases := []Step{
		// and_ule with a non-constant mask.
		{Rule: RuleLemmaAndUleR, Args: []*expr.Expr{tab.And(x, tab.Var(1, 8))}},
		// ule_const with c1 > c2.
		{Rule: RuleLemmaUleConst, Args: []*expr.Expr{tab.Const(5, 8), tab.Const(4, 8)}},
		// ule_shl whose shifted bound overflows: premise x <= 0xff.
		{Rule: RuleLemmaUleShl, Premises: []uint32{1}, Args: []*expr.Expr{tab.Const(4, 8)}},
	}
	for i, s := range cases {
		p := &Proof{Steps: []Step{
			{Rule: RuleAssume},
			{Rule: RuleLemmaUleMax, Args: []*expr.Expr{x}}, // x <= 0xff
			s,
		}}
		if err := Check(fig2Cond(15), p); err == nil {
			t.Errorf("case %d: unsound lemma application accepted", i)
		}
	}
}

func TestResolveRequiresPivotBothPolarities(t *testing.T) {
	cond := fig2Cond(15)
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleBitblastClause, Premises: []uint32{0}, ClauseIdx: 0},
		{Rule: RuleBitblastClause, Premises: []uint32{0}, ClauseIdx: 0},
		// Resolving a clause with itself: pivot cannot appear with both
		// polarities.
		{Rule: RuleResolve, Premises: []uint32{1, 2}, Pivot: 1},
	}}
	if err := Check(cond, p); err == nil {
		t.Fatal("self-resolution accepted")
	}
}

func TestBitblastClauseIndexBounds(t *testing.T) {
	cond := fig2Cond(15)
	p := &Proof{Steps: []Step{
		{Rule: RuleAssume},
		{Rule: RuleBitblastClause, Premises: []uint32{0}, ClauseIdx: 1 << 30},
	}}
	if err := Check(cond, p); err == nil {
		t.Fatal("out-of-range clause index accepted")
	}
}

// TestMutationFuzz corrupts valid proofs and checks that the checker
// never panics and never certifies a false condition.
func TestMutationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	valid := fig2Cond(15)
	falseCond := fig2Cond(14)
	base := handProof()
	for iter := 0; iter < 3000; iter++ {
		p := &Proof{Steps: make([]Step, len(base.Steps))}
		copy(p.Steps, base.Steps)
		// Random mutation: tweak a rule, premise, pivot, or clause index.
		i := rng.Intn(len(p.Steps))
		s := p.Steps[i]
		switch rng.Intn(4) {
		case 0:
			s.Rule = RuleID(rng.Intn(int(NumRules) + 4))
		case 1:
			s.Premises = append([]uint32(nil), s.Premises...)
			if len(s.Premises) > 0 {
				s.Premises[rng.Intn(len(s.Premises))] = uint32(rng.Intn(len(p.Steps)))
			} else {
				s.Premises = []uint32{uint32(rng.Intn(len(p.Steps)))}
			}
		case 2:
			s.Pivot = int32(rng.Intn(64) - 8)
		case 3:
			s.ClauseIdx = int32(rng.Intn(1 << 12))
		}
		p.Steps[i] = s
		// Must never certify the false condition.
		if err := Check(falseCond, p); err == nil {
			t.Fatalf("iter %d: mutated proof certified a false condition: step %d -> %s",
				iter, i, p.Steps[i].String())
		}
		// On the true condition, accepting is fine; crashing is not
		// (Check returning is the assertion).
		_ = Check(valid, p)
	}
}

func TestStepString(t *testing.T) {
	p := handProof()
	for i := range p.Steps {
		if p.Steps[i].String() == "" {
			t.Fatalf("empty step string at %d", i)
		}
	}
}

// TestStageOneLinearInSharedArgs pins the checker's format and type
// stage to work linear in distinct nodes: a proof of n steps that all
// share one n-node argument, doubled in both, may at most about double
// the bytes allocated. Sizing and validating the shared argument once per
// step would make it quadratic (about 4x).
func TestStageOneLinearInSharedArgs(t *testing.T) {
	const n = 1000
	bytesFor := func(n int) uint64 {
		// The argument is built apart from the condition, so the checker
		// interns it.
		tab := expr.NewTable(0)
		arg := tab.Var(0, 64)
		for i := 0; i < n; i++ {
			arg = tab.Add(arg, tab.Const(uint64(i), 64))
		}
		// Each step is valid, so every one passes stages 1 and 2; the
		// last does not conclude false, so Check fails in stage 3.
		p := &Proof{Steps: make([]Step, n)}
		for i := range p.Steps {
			p.Steps[i] = Step{Rule: RuleLemmaZeroUle, Args: []*expr.Expr{arg}}
		}
		return allocBytes(func() {
			if err := Check(fig2Cond(15), p); err == nil {
				t.Fatal("a proof that never concludes false was accepted")
			}
		})
	}
	small, big := bytesFor(n), bytesFor(2*n)
	ratio := float64(big) / float64(small)
	t.Logf("%d steps allocate %d B, %d steps allocate %d B (%.2fx)", n, small, 2*n, big, ratio)
	if ratio > 2.5 {
		t.Errorf("doubling steps and argument size multiplied allocation by %.2fx, want at most 2.5x", ratio)
	}
}

// allocBytes returns the fewest bytes f allocated over three runs.
func allocBytes(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestArgNodeLimit: once the table holds more nodes than MaxArgNodes,
// the arguments are counted together, and more distinct nodes than the
// limit among them is refused. The Figure 3 proof's arguments have 8
// distinct nodes: the condition's 6 (its 0xf and 15 are one node), the
// 8-bit 0 and (bvule 0xf 15). No one argument has more than 6.
func TestArgNodeLimit(t *testing.T) {
	lim := defaultLimits
	lim.MaxArgNodes = 8
	if _, err := check(fig2Cond(15), handProof(), lim); err != nil {
		t.Fatalf("arguments within the limit refused: %v", err)
	}
	lim.MaxArgNodes = 7
	_, err := check(fig2Cond(15), handProof(), lim)
	if err == nil || !strings.Contains(err.Error(), "arguments too large") {
		t.Fatalf("arguments over the limit together: %v, want them refused as too large", err)
	}
}
