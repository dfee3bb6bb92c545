package proof

import (
	"fmt"

	"bcf/internal/bitblast"
	"bcf/internal/expr"
	"bcf/internal/sat"
)

// limits harden the checker against adversarial proofs, mirroring the
// kernel's defensive posture toward user-space input. Check always uses
// defaultLimits; only tests tighten them.
type limits struct {
	MaxSteps     int
	MaxArgNodes  int // distinct nodes of all expression arguments together
	MaxClauseLen int
}

// defaultLimits are generous for every proof the reference prover emits.
var defaultLimits = limits{
	MaxSteps:     1 << 21,
	MaxArgNodes:  1 << 16,
	MaxClauseLen: 1 << 16,
}

// Check validates that p establishes cond. It performs the three stages
// of §5: (1) format and type checking, (2) rule application computing
// every conclusion, (3) comparison of the derivation against the stored
// condition (the assumption rule only ever introduces ¬cond, and the
// final step must conclude false). The check adds its conclusions, and
// any argument from outside it, to the condition's table, if it has one.
func Check(cond *expr.Expr, p *Proof) error {
	_, err := check(cond, p, defaultLimits)
	return err
}

// check runs the three stages and returns their work, accepted or not:
// the table's node operations, one unit per step, and the literals of
// the clauses bb_clause introduces and resolve reads. Re-deriving the
// CNF of ¬C depends on the condition alone and is not counted.
func check(cond *expr.Expr, p *Proof, lim limits) (work int, err error) {
	if cond == nil || cond.Width != 1 {
		return 0, fmt.Errorf("proof: condition must be a boolean term")
	}
	// Stage 1: format and type checking. Every term is made a member of
	// one table, the condition's or a new one; a term from outside it (a
	// struct literal, another table's term) is interned, which applies
	// the typing rule to each of its nodes once.
	tab := cond.Table()
	if tab == nil {
		tab = expr.NewTable(0)
	}
	ck, work0 := &checker{tab: tab, lim: lim}, tab.Work()
	defer func() { work = tab.Work() - work0 + len(p.Steps) + ck.lits }()
	if cond, err = tab.Intern(cond); err != nil {
		return 0, fmt.Errorf("proof: malformed condition: %w", err)
	}
	if len(p.Steps) == 0 {
		return 0, fmt.Errorf("proof: empty proof")
	}
	if len(p.Steps) > lim.MaxSteps {
		return 0, fmt.Errorf("proof: too many steps (%d)", len(p.Steps))
	}
	for i := range p.Steps {
		s := &p.Steps[i]
		if !s.Rule.Valid() {
			return 0, fmt.Errorf("proof: step %d: invalid rule %d", i, s.Rule)
		}
		for _, pi := range s.Premises {
			if int(pi) >= i {
				return 0, fmt.Errorf("proof: step %d: premise %d not yet derived", i, pi)
			}
		}
		for _, a := range s.Args {
			if _, err := tab.Intern(a); err != nil {
				return 0, fmt.Errorf("proof: step %d: malformed argument: %w", i, err)
			}
		}
	}
	// The arguments have no more distinct nodes than the table: only over
	// the limit are they counted, together, in one walk.
	if tab.Len() > lim.MaxArgNodes {
		var args []*expr.Expr
		for i := range p.Steps {
			args = append(args, p.Steps[i].Args...)
		}
		if tab.Count(lim.MaxArgNodes, args...) > lim.MaxArgNodes {
			return 0, fmt.Errorf("proof: arguments too large (over %d distinct nodes)", lim.MaxArgNodes)
		}
	}

	// Stage 2: rule application. Every conclusion is built in the table,
	// so comparing two terms is comparing two pointers.
	ck.notCond = tab.BoolNot(cond)
	concl := make([]Conclusion, len(p.Steps))
	for i := range p.Steps {
		c, err := ck.apply(&p.Steps[i], concl[:i])
		if err != nil {
			return 0, fmt.Errorf("proof: step %d (%s): %w", i, p.Steps[i].Rule, err)
		}
		concl[i] = c
	}

	// Stage 3: the derivation must end in the contradiction, which
	// discharges the (sole permitted) assumption ¬cond and establishes
	// the stored condition.
	if !concl[len(concl)-1].isFalse() {
		return 0, fmt.Errorf("proof: final step does not conclude false")
	}
	return 0, nil
}

type checker struct {
	tab     *expr.Table // the round's terms: every premise, argument and conclusion
	notCond *expr.Expr
	cnf     *bitblast.CNF
	lim     limits
	lits    int // clause literals introduced and read, for the work count
	// resolve's state, sized by blast: a stamp per literal (2v for +v,
	// 2v+1 for -v), bumped once per step so it never wraps, and the
	// arena resolvents are cut from, 1024 literals at a time.
	mark  []uint32
	stamp uint32
	arena []sat.Lit
}

// blast lazily bit-blasts ¬cond (shared with the prover by determinism).
func (ck *checker) blast() (*bitblast.CNF, error) {
	if ck.cnf == nil {
		cnf, err := bitblast.Encode(ck.notCond)
		if err != nil {
			return nil, err
		}
		ck.cnf, ck.mark = cnf, make([]uint32, 2*cnf.NVars+2)
	}
	return ck.cnf, nil
}

func (ck *checker) apply(s *Step, prior []Conclusion) (Conclusion, error) {
	// Premise accessors.
	nPrem := len(s.Premises)
	form := func(i int) (*expr.Expr, error) {
		if i >= nPrem {
			return nil, fmt.Errorf("missing premise %d", i)
		}
		c := prior[s.Premises[i]]
		if c.IsClause {
			return nil, fmt.Errorf("premise %d is a clause, need a formula", i)
		}
		return c.Formula, nil
	}
	clause := func(i int) ([]sat.Lit, error) {
		if i >= nPrem {
			return nil, fmt.Errorf("missing premise %d", i)
		}
		c := prior[s.Premises[i]]
		if !c.IsClause {
			return nil, fmt.Errorf("premise %d is a formula, need a clause", i)
		}
		return c.Clause, nil
	}
	// Stage 1 interned every argument: Intern finds its member.
	arg := func(i int) (*expr.Expr, error) {
		if i >= len(s.Args) {
			return nil, fmt.Errorf("missing argument %d", i)
		}
		return ck.tab.Intern(s.Args[i])
	}
	boolPrem := func(i int) (*expr.Expr, error) {
		f, err := form(i)
		if err != nil {
			return nil, err
		}
		if f.Width != 1 {
			return nil, fmt.Errorf("premise %d is not boolean", i)
		}
		return f, nil
	}
	eqPrem := func(i int) (a, b *expr.Expr, err error) {
		f, err := form(i)
		if err != nil {
			return nil, nil, err
		}
		if f.Op != expr.OpEq {
			return nil, nil, fmt.Errorf("premise %d is not an equality", i)
		}
		return f.Args[0], f.Args[1], nil
	}
	ulePrem := func(i int) (a, b *expr.Expr, err error) {
		f, err := form(i)
		if err != nil {
			return nil, nil, err
		}
		if f.Op != expr.OpUle {
			return nil, nil, fmt.Errorf("premise %d is not a bvule", i)
		}
		return f.Args[0], f.Args[1], nil
	}

	switch s.Rule {
	case RuleAssume:
		return formulaC(ck.notCond), nil

	case RuleNotImplies1, RuleNotImplies2:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		if p.Op != expr.OpBoolNot || p.Args[0].Op != expr.OpImplies {
			return Conclusion{}, fmt.Errorf("premise is not ¬(P⇒Q)")
		}
		impl := p.Args[0]
		if s.Rule == RuleNotImplies1 {
			return formulaC(impl.Args[0]), nil
		}
		return formulaC(ck.tab.BoolNot(impl.Args[1])), nil

	case RuleAndElim1, RuleAndElim2:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		if p.Op != expr.OpBoolAnd {
			return Conclusion{}, fmt.Errorf("premise is not a conjunction")
		}
		if s.Rule == RuleAndElim1 {
			return formulaC(p.Args[0]), nil
		}
		return formulaC(p.Args[1]), nil

	case RuleContradiction:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		q, err := boolPrem(1)
		if err != nil {
			return Conclusion{}, err
		}
		if (q.Op == expr.OpBoolNot && q.Args[0] == p) ||
			(p.Op == expr.OpBoolNot && p.Args[0] == q) {
			return formulaC(ck.tab.Bool(false)), nil
		}
		return Conclusion{}, fmt.Errorf("premises are not complementary")

	case RuleNotTrueElim:
		np, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		a, b, err := eqPrem(1)
		if err != nil {
			return Conclusion{}, err
		}
		if np.Op != expr.OpBoolNot || np.Args[0] != a || !b.IsTrue() {
			return Conclusion{}, fmt.Errorf("premises do not match ¬P, (= P true)")
		}
		return formulaC(ck.tab.Bool(false)), nil

	case RuleEqMp, RuleEqMpRev:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		a, b, err := eqPrem(1)
		if err != nil {
			return Conclusion{}, err
		}
		if s.Rule == RuleEqMpRev {
			a, b = b, a
		}
		if a.Width != 1 || p != a {
			return Conclusion{}, fmt.Errorf("premise does not match the equality's left side")
		}
		return formulaC(b), nil

	case RuleAndIntro:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		q, err := boolPrem(1)
		if err != nil {
			return Conclusion{}, err
		}
		return formulaC(ck.tab.BoolAnd(p, q)), nil

	case RuleLemmaUltUle:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		if p.Op != expr.OpUlt {
			return Conclusion{}, fmt.Errorf("premise is not a bvult")
		}
		return formulaC(ck.tab.Ule(p.Args[0], p.Args[1])), nil

	case RuleNotUltElim, RuleNotUleElim:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		wantInner := expr.OpUlt
		if s.Rule == RuleNotUleElim {
			wantInner = expr.OpUle
		}
		if p.Op != expr.OpBoolNot || p.Args[0].Op != wantInner {
			return Conclusion{}, fmt.Errorf("premise is not the negated comparison")
		}
		inner := p.Args[0]
		if s.Rule == RuleNotUltElim {
			// ¬(a < b) ⟺ b <= a
			return formulaC(ck.tab.Ule(inner.Args[1], inner.Args[0])), nil
		}
		// ¬(a <= b) ⟺ b < a
		return formulaC(ck.tab.Ult(inner.Args[1], inner.Args[0])), nil

	case RuleSymm:
		a, b, err := eqPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		return formulaC(ck.tab.Eq(b, a)), nil

	case RuleTrans:
		a, b, err := eqPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		b2, c, err := eqPrem(1)
		if err != nil {
			return Conclusion{}, err
		}
		if b != b2 {
			return Conclusion{}, fmt.Errorf("middle terms differ")
		}
		return formulaC(ck.tab.Eq(a, c)), nil

	case RuleCong:
		a, b, err := eqPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		t, err := arg(0)
		if err != nil {
			return Conclusion{}, err
		}
		idxE, err := arg(1)
		if err != nil {
			return Conclusion{}, err
		}
		idxV, ok := idxE.IsConst()
		if !ok {
			return Conclusion{}, fmt.Errorf("cong index must be a constant")
		}
		idx := int(idxV)
		if idx < 0 || idx >= len(t.Args) {
			return Conclusion{}, fmt.Errorf("cong index out of range")
		}
		if t.Args[idx] != a {
			return Conclusion{}, fmt.Errorf("cong child does not match the equality")
		}
		t2, err := expr.ReplaceArg(t, idx, b)
		if err != nil {
			return Conclusion{}, err
		}
		return formulaC(ck.tab.Eq(t, t2)), nil

	case RuleBitblastClause:
		p, err := boolPrem(0)
		if err != nil {
			return Conclusion{}, err
		}
		if p != ck.notCond {
			return Conclusion{}, fmt.Errorf("bit-blasting must start from the assumed ¬C")
		}
		cnf, err := ck.blast()
		if err != nil {
			return Conclusion{}, err
		}
		if s.ClauseIdx < 0 || int(s.ClauseIdx) >= len(cnf.Clauses) {
			return Conclusion{}, fmt.Errorf("clause index %d out of range", s.ClauseIdx)
		}
		ck.lits += len(cnf.Clauses[s.ClauseIdx])
		return clauseC(cnf.Clauses[s.ClauseIdx]), nil

	case RuleResolve:
		a, err := clause(0)
		if err != nil {
			return Conclusion{}, err
		}
		b, err := clause(1)
		if err != nil {
			return Conclusion{}, err
		}
		return ck.resolve(a, b, int(s.Pivot))
	}

	// Rewrites (the catalog and eval) and interval lemmas.
	if c, err, handled := ck.applyRewrite(s, arg); handled {
		return c, err
	}
	if c, err, handled := ck.applyLemma(s, arg, ulePrem, eqPrem); handled {
		return c, err
	}
	return Conclusion{}, fmt.Errorf("unhandled rule")
}

// resolve computes the binary resolvent on pivot. Clauses derive from
// the bit-blasted ¬C, so every literal's variable has a stamp slot, and
// no literal's variable is a pivot below 1.
func (ck *checker) resolve(a, b []sat.Lit, pivot int) (Conclusion, error) {
	if n := len(a) + len(b); cap(ck.arena)-len(ck.arena) < n {
		ck.arena = make([]sat.Lit, 0, max(1024, n))
	}
	ck.stamp++
	ck.lits += len(a) + len(b)
	start, polarities := len(ck.arena), 0
	for _, c := range [2][]sat.Lit{a, b} {
		for _, l := range c {
			i := 2 * l.Var()
			if l < 0 {
				i++
			}
			if l.Var() == pivot {
				polarities |= 1 << (i & 1)
			} else if ck.mark[i] != ck.stamp {
				ck.mark[i] = ck.stamp
				ck.arena = append(ck.arena, l)
			}
		}
	}
	if polarities != 3 {
		return Conclusion{}, fmt.Errorf("pivot %d does not occur with both polarities", pivot)
	}
	end := len(ck.arena)
	if end-start > ck.lim.MaxClauseLen {
		return Conclusion{}, fmt.Errorf("resolvent too large")
	}
	return clauseC(ck.arena[start:end:end]), nil
}
