package proof

import (
	"fmt"

	"bcf/internal/expr"
	"bcf/internal/sat"
)

// Step is one proof step: a rule applied to earlier steps and expression
// arguments. Conclusions are recomputed by the checker.
type Step struct {
	Rule      RuleID
	Premises  []uint32
	Args      []*expr.Expr
	Pivot     int32 // RuleResolve: pivot variable
	ClauseIdx int32 // RuleBitblastClause: input clause index
}

// Proof is a topologically ordered list of steps (the serialized form of
// the proof tree, §4 Proof Check). The final step must conclude false.
type Proof struct {
	Steps []Step
}

// Conclusion is a computed step result: either a boolean formula or a
// CNF clause over the Tseitin variables of the bit-blasted ¬C.
type Conclusion struct {
	Formula  *expr.Expr
	Clause   []sat.Lit
	IsClause bool
}

func formulaC(f *expr.Expr) Conclusion { return Conclusion{Formula: f} }
func clauseC(c []sat.Lit) Conclusion   { return Conclusion{Clause: c, IsClause: true} }

// isFalse reports whether the conclusion is the contradiction.
func (c Conclusion) isFalse() bool {
	if c.IsClause {
		return len(c.Clause) == 0
	}
	return c.Formula.IsFalse()
}

// String renders a step for logs and error messages.
func (s *Step) String() string {
	out := s.Rule.String()
	if len(s.Premises) > 0 {
		out += fmt.Sprintf(" premises=%v", s.Premises)
	}
	for _, a := range s.Args {
		out += " " + a.String()
	}
	if s.Rule == RuleResolve {
		out += fmt.Sprintf(" pivot=%d", s.Pivot)
	}
	if s.Rule == RuleBitblastClause {
		out += fmt.Sprintf(" clause=%d", s.ClauseIdx)
	}
	return out
}
