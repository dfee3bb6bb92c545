package solver

import (
	"bcf/internal/expr"
	"bcf/internal/proof"
)

// eqResult is the outcome of proof-producing simplification: the
// simplified term and the index of a step concluding (= original result),
// or changed=false when the term was already in normal form.
type eqResult struct {
	term    *expr.Expr
	step    uint32
	changed bool
}

// simplify rewrites t bottom-up with the checker's algebraic catalog,
// emitting a proof of (= t result). Whether a term is already in normal
// form depends on the term alone, so that outcome is kept per node and a
// shared normal subterm is visited once.
func (b *builder) simplify(t *expr.Expr) eqResult {
	if id := int(t.ID()); id < len(b.normal) && b.normal[id] {
		return eqResult{term: t}
	}
	cur := t
	var accStep uint32
	changed := false

	// chain extends the accumulated equality (= t cur) with (= cur next).
	chain := func(next *expr.Expr, step uint32) {
		if changed {
			accStep = b.add(proof.RuleTrans, prems(accStep, step))
		} else {
			accStep = step
			changed = true
		}
		cur = next
	}

	// Simplify children first, transporting each child rewrite through a
	// congruence step on the current term.
	for i := range t.Args {
		child := b.simplify(cur.Args[i])
		if !child.changed {
			continue
		}
		next, err := expr.ReplaceArg(cur, i, child.term)
		if err != nil {
			continue // cannot happen for same-width rewrites; be safe
		}
		step := b.add(proof.RuleCong, prems(child.step), cur, b.tab.Const(uint64(i), 8))
		chain(next, step)
	}

	// Apply top-level catalog rewrites to a fixpoint.
	for {
		rule, next := topRewrite(cur)
		if rule == proof.RuleInvalid {
			break
		}
		step := b.add(rule, nil, cur)
		chain(next, step)
	}

	// Ground terms fold to constants.
	if cur.Op != expr.OpConst {
		if next, ok := proof.Rewrite(proof.RuleEvalConst, cur); ok {
			step := b.add(proof.RuleEvalConst, nil, cur)
			chain(next, step)
		}
	}

	if !changed {
		if n := b.tab.Len(); len(b.normal) < n {
			b.normal = append(b.normal, make([]bool, n-len(b.normal))...)
		}
		b.normal[t.ID()] = true
	}
	return eqResult{term: cur, step: accStep, changed: changed}
}

// rewriteOrder lists, per root operator, the catalog rewrites the
// rewrite tier tries, in order; the checker's catalog (proof.Rewrite)
// defines what each one matches and produces. The commutativity rules
// are left out: applied to a fixpoint they would never stop.
var rewriteOrder = [expr.NumOps][]proof.RuleID{
	expr.OpAdd: {proof.RuleRwAddSubCancelR, proof.RuleRwAddSubCancelL,
		proof.RuleRwAddZeroR, proof.RuleRwAddZeroL},
	expr.OpSub: {proof.RuleRwSubAddCancelR, proof.RuleRwSubAddCancelL,
		proof.RuleRwSubSelf, proof.RuleRwSubZero},
	expr.OpAnd: {proof.RuleRwAndZeroR, proof.RuleRwAndZeroL,
		proof.RuleRwAndSelf, proof.RuleRwAndConstFold},
	expr.OpOr:  {proof.RuleRwOrZeroR, proof.RuleRwOrZeroL, proof.RuleRwOrSelf},
	expr.OpXor: {proof.RuleRwXorSelf, proof.RuleRwXorZeroR, proof.RuleRwXorZeroL},
	expr.OpMul: {proof.RuleRwMulZeroR, proof.RuleRwMulZeroL,
		proof.RuleRwMulOneR, proof.RuleRwMulOneL},
	expr.OpShl:     {proof.RuleRwShiftZero},
	expr.OpLshr:    {proof.RuleRwShiftZero},
	expr.OpAshr:    {proof.RuleRwShiftZero},
	expr.OpNot:     {proof.RuleRwNotNot},
	expr.OpZExt:    {proof.RuleRwZExtZero},
	expr.OpExtract: {proof.RuleRwExtractZExt},
}

// topRewrite finds the first rewrite in rewriteOrder that applies at the
// root of t, returning the rule and the rewritten term (RuleInvalid when
// none applies).
func topRewrite(t *expr.Expr) (proof.RuleID, *expr.Expr) {
	for _, r := range rewriteOrder[t.Op] {
		if next, ok := proof.Rewrite(r, t); ok {
			return r, next
		}
	}
	return proof.RuleInvalid, nil
}
