package solver

import (
	"bcf/internal/expr"
	"bcf/internal/proof"
)

// collectFacts decomposes an implication hypothesis (the path-constraint
// conjunction) into normalized (bvule lhs const) facts, each backed by a
// proof step, for the interval engine to consume.
func (b *builder) collectFacts(p *expr.Expr, step uint32) {
	switch p.Op {
	case expr.OpBoolAnd:
		l := b.add(proof.RuleAndElim1, prems(step))
		b.collectFacts(p.Args[0], l)
		r := b.add(proof.RuleAndElim2, prems(step))
		b.collectFacts(p.Args[1], r)
	case expr.OpUle:
		if c, ok := p.Args[1].IsConst(); ok {
			b.recordFact(p.Args[0], c, step)
		}
	case expr.OpUlt:
		if c, ok := p.Args[1].IsConst(); ok {
			s := b.add(proof.RuleLemmaUltUle, prems(step))
			b.recordFact(p.Args[0], c, s)
		}
	case expr.OpEq:
		if c, ok := p.Args[1].IsConst(); ok && p.Args[0].Width > 1 {
			s := b.add(proof.RuleLemmaEqBound, prems(step))
			b.recordFact(p.Args[0], c, s)
		}
	case expr.OpBoolNot:
		inner := p.Args[0]
		switch inner.Op {
		case expr.OpUlt:
			// ¬(a < b) ⟺ b <= a.
			s := b.add(proof.RuleNotUltElim, prems(step)) // ⊢ (bvule b a)
			if c, ok := inner.Args[0].IsConst(); ok {
				b.recordFact(inner.Args[1], c, s)
			}
		case expr.OpUle:
			// ¬(a <= b) ⟺ b < a.
			s := b.add(proof.RuleNotUleElim, prems(step)) // ⊢ (bvult b a)
			if c, ok := inner.Args[0].IsConst(); ok {
				s2 := b.add(proof.RuleLemmaUltUle, prems(s))
				b.recordFact(inner.Args[1], c, s2)
			}
		}
	}
}

// recordFact stores the bound on lhs and, when lhs simplifies, also on
// its normal form (transported through the equality).
func (b *builder) recordFact(lhs *expr.Expr, bound uint64, step uint32) {
	b.addFact(lhs, bound, step)
	simp := b.simplify(lhs)
	if !simp.changed {
		return
	}
	// (= lhs lhs') lifts to (= (bvule lhs c) (bvule lhs' c)) by cong,
	// then eq_mp moves the fact onto the simplified term.
	pred := b.tab.Ule(lhs, b.tab.Const(bound, lhs.Width))
	congStep := b.add(proof.RuleCong, prems(simp.step), pred, b.tab.Const(0, 8))
	moved := b.add(proof.RuleEqMp, prems(step, congStep))
	b.addFact(simp.term, bound, moved)
}

// deriveUpperBound emits proof steps concluding (bvule t c) for the
// tightest constant c the lemma fragment can justify, returning c and the
// step index. It always succeeds (falling back to the width maximum).
func (b *builder) deriveUpperBound(t *expr.Expr) (uint64, uint32) {
	// Premise facts (path constraints) take priority when tighter than
	// anything derivable structurally.
	if c, step, ok := b.lookupFact(t); ok {
		return c, step
	}
	// Then a lemma bounding t from its own shape, such as a constant mask.
	for _, r := range boundOrder[t.Op] {
		if c, ok := proof.UpperBound(r, t); ok {
			return c, b.add(r, nil, t)
		}
	}
	switch t.Op {
	case expr.OpConst:
		// (bvule c c) by lemma_ule_const.
		step := b.add(proof.RuleLemmaUleConst, nil, t, t)
		return t.K, step
	case expr.OpAnd:
		// Bound one operand and use monotonicity of masking.
		c0, s0 := b.deriveUpperBound(t.Args[0])
		c1, s1 := b.deriveUpperBound(t.Args[1])
		if c0 <= c1 {
			step := b.add(proof.RuleLemmaUleAndMono, prems(s0), t)
			return c0, step
		}
		step := b.add(proof.RuleLemmaUleAndMono, prems(s1), t)
		return c1, step
	case expr.OpAdd:
		c0, s0 := b.deriveUpperBound(t.Args[0])
		c1, s1 := b.deriveUpperBound(t.Args[1])
		sum := (c0 + c1) & expr.Mask(t.Width)
		if sum >= c0 { // no wrap within the width
			step := b.add(proof.RuleLemmaUleAdd, prems(s0, s1))
			return sum, step
		}
	case expr.OpShl:
		if k, ok := t.Args[1].IsConst(); ok {
			c, s := b.deriveUpperBound(t.Args[0])
			sh := k % uint64(t.Width)
			shifted := (c << sh) & expr.Mask(t.Width)
			if shifted>>sh == c {
				step := b.add(proof.RuleLemmaUleShl, prems(s), t.Args[1])
				return shifted, step
			}
		}
	case expr.OpUDiv, expr.OpURem:
		c, s := b.deriveUpperBound(t.Args[0])
		step := b.add(proof.RuleLemmaDivRemLe, prems(s), t)
		return c, step
	case expr.OpZExt:
		// A premise fact on the inner term lifts through the extension.
		if c, s, ok := b.lookupFact(t.Args[0]); ok {
			step := b.add(proof.RuleLemmaZExtMono, prems(s), t)
			return c, step
		}
		inner, s := b.deriveUpperBound(t.Args[0])
		full, _ := proof.UpperBound(proof.RuleLemmaZExtBound, t)
		if inner < full {
			step := b.add(proof.RuleLemmaZExtMono, prems(s), t)
			return inner, step
		}
		return full, b.add(proof.RuleLemmaZExtBound, nil, t)
	}
	// Fallback: every value fits in its width.
	c, _ := proof.UpperBound(proof.RuleLemmaUleMax, t)
	return c, b.add(proof.RuleLemmaUleMax, nil, t)
}

// boundOrder lists, per root operator, the argument-only lemmas
// deriveUpperBound tries before bounding t's operands; the checker's
// catalog (proof.UpperBound) computes each one's bound.
var boundOrder = [expr.NumOps][]proof.RuleID{
	expr.OpAnd:  {proof.RuleLemmaAndUleR, proof.RuleLemmaAndUleL},
	expr.OpLshr: {proof.RuleLemmaLshrBound},
	expr.OpURem: {proof.RuleLemmaURemBound},
}

// proveUle tries to emit steps concluding (bvule t hi); reports the step
// index and success. It simplifies t first and transports the bound back
// through the equality.
func (b *builder) proveUle(t *expr.Expr, hi uint64) (uint32, bool) {
	mark := len(b.steps)
	simp := b.simplify(t)
	c, boundStep := b.deriveUpperBound(simp.term)
	if c > hi {
		// The lemma fragment cannot justify the requested bound; undo the
		// speculative steps so failed attempts do not bloat the proof.
		b.steps = b.steps[:mark]
		return 0, false
	}
	finalOnSimplified := boundStep
	if c < hi {
		// (bvule c hi) and transitivity lift the derived bound.
		constStep := b.add(proof.RuleLemmaUleConst, nil,
			b.tab.Const(c, t.Width), b.tab.Const(hi, t.Width))
		finalOnSimplified = b.add(proof.RuleLemmaUleTrans, prems(boundStep, constStep))
	}
	if !simp.changed {
		return finalOnSimplified, true
	}
	// From (= t t') derive (= (bvule t hi) (bvule t' hi)) by congruence,
	// then transport the proven bound back with eq_mp_rev.
	pred := b.tab.Ule(t, b.tab.Const(hi, t.Width))
	congStep := b.add(proof.RuleCong, prems(simp.step), pred, b.tab.Const(0, 8))
	final := b.add(proof.RuleEqMpRev, prems(finalOnSimplified, congStep))
	return final, true
}

// proveZeroLe emits steps concluding (bvule 0 t); this always holds.
func (b *builder) proveZeroLe(t *expr.Expr) uint32 {
	return b.add(proof.RuleLemmaZeroUle, nil, t)
}
