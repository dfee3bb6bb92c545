package proof

import (
	"fmt"

	"bcf/internal/expr"
)

// rewriteFn is one rewrite rule: for an argument t matching its pattern
// it returns rhs, and the rule concludes (= t rhs).
type rewriteFn func(t *expr.Expr) (*expr.Expr, bool)

// Rewrite applies the rewrite rule r (the algebraic catalog or eval) to
// t, returning the rhs of the conclusion (= t rhs); false when r is not a
// rewrite rule or t does not match its pattern. A new rhs is built in
// t's table. This is the rule's one definition: the checker applies it,
// and the prover's rewrite tier calls it to find its steps.
func Rewrite(r RuleID, t *expr.Expr) (*expr.Expr, bool) {
	if r >= NumRules || rewrites[r] == nil {
		return nil, false
	}
	return rewrites[r](t)
}

// rewrites is the catalog, indexed by rule; the patterns are listed with
// the rule ids in rules.go.
var rewrites = [NumRules]rewriteFn{
	RuleEvalConst: func(t *expr.Expr) (*expr.Expr, bool) {
		if !t.IsGround() {
			return nil, false
		}
		return t.Table().Const(t.GroundValue(), t.Width), true
	},
	RuleRwAddSubCancelR: cancel(expr.OpAdd, 1, expr.OpSub, 1),
	RuleRwAddSubCancelL: cancel(expr.OpAdd, 0, expr.OpSub, 1),
	RuleRwSubAddCancelR: cancel(expr.OpSub, 0, expr.OpAdd, 0),
	RuleRwSubAddCancelL: cancel(expr.OpSub, 0, expr.OpAdd, 1),
	RuleRwSubSelf:       sameOperands(expr.OpSub, zeroOf),
	RuleRwAddZeroR:      constOperand(expr.OpAdd, 1, 0, operand0),
	RuleRwAddZeroL:      constOperand(expr.OpAdd, 0, 0, operand1),
	RuleRwSubZero:       constOperand(expr.OpSub, 1, 0, operand0),
	RuleRwAndZeroR:      constOperand(expr.OpAnd, 1, 0, zeroOf),
	RuleRwAndZeroL:      constOperand(expr.OpAnd, 0, 0, zeroOf),
	RuleRwAndSelf:       sameOperands(expr.OpAnd, operand0),
	RuleRwAndConstFold: func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != expr.OpAnd || t.Args[0].Op != expr.OpAnd {
			return nil, false
		}
		c1, ok1 := t.Args[0].Args[1].IsConst()
		c2, ok2 := t.Args[1].IsConst()
		if !ok1 || !ok2 {
			return nil, false
		}
		tab := t.Table()
		return tab.And(t.Args[0].Args[0], tab.Const(c1&c2, t.Width)), true
	},
	RuleRwOrZeroR:   constOperand(expr.OpOr, 1, 0, operand0),
	RuleRwOrZeroL:   constOperand(expr.OpOr, 0, 0, operand1),
	RuleRwOrSelf:    sameOperands(expr.OpOr, operand0),
	RuleRwXorSelf:   sameOperands(expr.OpXor, zeroOf),
	RuleRwXorZeroR:  constOperand(expr.OpXor, 1, 0, operand0),
	RuleRwXorZeroL:  constOperand(expr.OpXor, 0, 0, operand1),
	RuleRwMulZeroR:  constOperand(expr.OpMul, 1, 0, zeroOf),
	RuleRwMulZeroL:  constOperand(expr.OpMul, 0, 0, zeroOf),
	RuleRwMulOneR:   constOperand(expr.OpMul, 1, 1, operand0),
	RuleRwMulOneL:   constOperand(expr.OpMul, 0, 1, operand1),
	RuleRwShiftZero: shiftZero,
	RuleRwNotNot: func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != expr.OpNot || t.Args[0].Op != expr.OpNot {
			return nil, false
		}
		return t.Args[0].Args[0], true
	},
	RuleRwZExtZero: func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != expr.OpZExt || !isConst(t.Args[0], 0) {
			return nil, false
		}
		return zeroOf(t), true
	},
	RuleRwExtractZExt: func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != expr.OpExtract || t.Aux != 0 || t.Args[0].Op != expr.OpZExt ||
			t.Args[0].Args[0].Width != t.Width {
			return nil, false
		}
		return t.Args[0].Args[0], true
	},
}

// applyRewrite handles the rewrite rules: the argument t must match the
// rule's pattern, and the step concludes (= t rhs).
func (ck *checker) applyRewrite(s *Step, arg func(int) (*expr.Expr, error)) (Conclusion, error, bool) {
	rw := rewrites[s.Rule]
	if rw == nil {
		return Conclusion{}, nil, false
	}
	t, err := arg(0)
	if err != nil {
		return Conclusion{}, err, true
	}
	rhs, ok := rw(t)
	if !ok {
		return Conclusion{}, errNoMatch, true
	}
	if rhs.Width != t.Width {
		return Conclusion{}, fmt.Errorf("rewrite changed width"), true
	}
	return formulaC(ck.tab.Eq(t, rhs)), nil, true
}

var errNoMatch = fmt.Errorf("argument does not match the rule's pattern")

func errPattern(want string) error {
	return fmt.Errorf("argument does not match pattern %s", want)
}

func isConst(e *expr.Expr, k uint64) bool {
	c, ok := e.IsConst()
	return ok && c == k
}

func operand0(t *expr.Expr) *expr.Expr { return t.Args[0] }
func operand1(t *expr.Expr) *expr.Expr { return t.Args[1] }
func zeroOf(t *expr.Expr) *expr.Expr   { return t.Table().Const(0, t.Width) }

// cancel matches (op ...) whose operand i is (inner ...) with inner
// operand j equal to op's other operand, and rewrites to inner's other
// operand: cancel(OpAdd, 1, OpSub, 1) is (bvadd a (bvsub b a)) = b.
func cancel(op expr.Op, i int, inner expr.Op, j int) rewriteFn {
	return func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != op || t.Args[i].Op != inner || !expr.Equal(t.Args[i].Args[j], t.Args[1-i]) {
			return nil, false
		}
		return t.Args[i].Args[1-j], true
	}
}

// sameOperands matches (op a a).
func sameOperands(op expr.Op, out func(*expr.Expr) *expr.Expr) rewriteFn {
	return func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != op || !expr.Equal(t.Args[0], t.Args[1]) {
			return nil, false
		}
		return out(t), true
	}
}

// constOperand matches (op ...) whose operand i is the constant k.
func constOperand(op expr.Op, i int, k uint64, out func(*expr.Expr) *expr.Expr) rewriteFn {
	return func(t *expr.Expr) (*expr.Expr, bool) {
		if t.Op != op || !isConst(t.Args[i], k) {
			return nil, false
		}
		return out(t), true
	}
}

func shiftZero(t *expr.Expr) (*expr.Expr, bool) {
	if (t.Op != expr.OpShl && t.Op != expr.OpLshr && t.Op != expr.OpAshr) || !isConst(t.Args[1], 0) {
		return nil, false
	}
	return t.Args[0], true
}
