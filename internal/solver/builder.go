// Package solver is BCF's user-space reasoning engine (the cvc5 analog).
// Given a refinement condition it either produces a machine-checkable
// proof of the condition's validity or a counterexample assignment.
//
// Proving proceeds in two tiers. The rewrite tier simplifies the
// condition with a proof-producing equational rewriter plus interval
// lemmas over the bvule fragment; it discharges the common refinement
// patterns with proofs of a few hundred bytes. When it cannot conclude,
// the complete tier bit-blasts the negated condition to CNF and runs a
// CDCL SAT solver whose resolution refutation is translated into checker
// steps (completeness per §5: resolution plus bit-blasting suffice for
// fixed-width bit-vector conditions).
package solver

import (
	"bcf/internal/expr"
	"bcf/internal/proof"
)

// fact is a derived upper bound usable by the interval engine: a step
// concluding (bvule lhs bound), kept under lhs.
type fact struct {
	bound uint64
	step  uint32
}

// builder accumulates proof steps plus the premise facts harvested from
// an implication's hypothesis (path constraints). Its terms are members
// of the condition's table, so equal terms are the same pointer.
type builder struct {
	tab   *expr.Table
	steps []proof.Step
	facts map[*expr.Expr][]fact
	// normal marks, by node ID, the terms simplify left unchanged.
	normal []bool
}

// reset empties the builder for a proof over tab's terms, keeping its
// arrays and map. It clears the old steps, whose arguments would keep the
// last condition's table alive.
func (b *builder) reset(tab *expr.Table) {
	b.tab = tab
	clear(b.steps)
	b.steps = b.steps[:0]
	b.normal = b.normal[:0]
	clear(b.facts)
}

// addFact records a premise-derived bound.
func (b *builder) addFact(lhs *expr.Expr, bound uint64, step uint32) {
	if b.facts == nil {
		b.facts = map[*expr.Expr][]fact{}
	}
	b.facts[lhs] = append(b.facts[lhs], fact{bound: bound, step: step})
}

// lookupFact finds the tightest recorded bound for a term.
func (b *builder) lookupFact(t *expr.Expr) (uint64, uint32, bool) {
	best := fact{}
	found := false
	for _, f := range b.facts[t] {
		if !found || f.bound < best.bound {
			best = f
			found = true
		}
	}
	return best.bound, best.step, found
}

// add appends a step and returns its index.
func (b *builder) add(rule proof.RuleID, prems []uint32, args ...*expr.Expr) uint32 {
	b.steps = append(b.steps, proof.Step{Rule: rule, Premises: prems, Args: args})
	return uint32(len(b.steps) - 1)
}

// addClauseStep appends a bit-level step.
func (b *builder) addClauseStep(s proof.Step) uint32 {
	b.steps = append(b.steps, s)
	return uint32(len(b.steps) - 1)
}

// prems is sugar for premise lists.
func prems(idx ...uint32) []uint32 { return idx }
