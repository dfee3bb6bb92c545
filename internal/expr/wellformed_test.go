package expr_test

import (
	"fmt"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/expr"
	"bcf/internal/proof"
)

// malformed is the one table of node shapes the typing rule rejects.
// They are struct literals because every constructor refuses them; each
// one's children are well-formed, so the fault is in the node itself.
var malformed = []struct {
	name string
	e    *expr.Expr
	// masked marks the shape the wire cannot carry: the decoders mask a
	// constant to its width, as expr.Const does, so they accept its
	// encoding as the masked constant.
	masked bool
}{
	{"arity", &expr.Expr{Op: expr.OpAdd, Width: 64, Args: []*expr.Expr{expr.Var(0, 64)}}, false},
	{"operand width", &expr.Expr{Op: expr.OpAdd, Width: 64, Args: []*expr.Expr{expr.Var(0, 64), expr.Var(1, 32)}}, false},
	{"oversized const", &expr.Expr{Op: expr.OpConst, Width: 8, K: 0x1ff}, true},
	{"predicate width", &expr.Expr{Op: expr.OpEq, Width: 64, Args: []*expr.Expr{expr.Var(0, 64), expr.Var(1, 64)}}, false},
	{"bad width", &expr.Expr{Op: expr.OpVar, Width: 7, K: 0}, false},
	{"bool operand", &expr.Expr{Op: expr.OpBoolAnd, Width: 1, Args: []*expr.Expr{expr.Var(0, 64), expr.Var(1, 1)}}, false},
	{"not operand", &expr.Expr{Op: expr.OpBoolNot, Width: 1, Args: []*expr.Expr{expr.Var(0, 64)}}, false},
	{"extract range", &expr.Expr{Op: expr.OpExtract, Width: 32, Aux: 40, Args: []*expr.Expr{expr.Var(0, 64)}}, false},
	{"zext of bool", &expr.Expr{Op: expr.OpZExt, Width: 64, Args: []*expr.Expr{expr.Var(0, 1)}}, false},
	{"narrowing sext", &expr.Expr{Op: expr.OpSExt, Width: 32, Args: []*expr.Expr{expr.Var(0, 64)}}, false},
	{"bad op", &expr.Expr{Op: expr.Op(200), Width: 64}, false},
}

func TestCheckWellFormed(t *testing.T) {
	good := expr.Ule(expr.Add(expr.Var(0, 64), expr.Const(1, 64)), expr.Const(15, 64))
	if err := good.CheckWellFormed(nil); err != nil {
		t.Errorf("good term rejected: %v", err)
	}
	for _, c := range malformed {
		if err := c.e.CheckWellFormed(nil); err == nil {
			t.Errorf("%s: CheckWellFormed accepted it", c.name)
		}
		if err := expr.Eq(c.e, c.e).CheckWellFormed(nil); err == nil {
			t.Errorf("%s: CheckWellFormed accepted it below a well-typed root", c.name)
		}
		if _, err := expr.Rebuild(c.e.Op, c.e.Width, c.e.Aux, c.e.K, c.e.Args); err == nil {
			t.Errorf("%s: Rebuild accepted it", c.name)
		}
	}
}

// TestDecodersRejectMalformedShapes feeds the raw encoding of every
// malformed shape to both decoders: each must return an error, never
// panic and never hand the shape to the checker.
func TestDecodersRejectMalformedShapes(t *testing.T) {
	for _, c := range malformed {
		// The encoders write terms as given, so they serialize the shape.
		condBuf, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: expr.Eq(c.e, c.e)})
		if err != nil {
			t.Fatalf("%s: encode condition: %v", c.name, err)
		}
		proofBuf, err := bcfenc.EncodeProof(&proof.Proof{Steps: []proof.Step{
			{Rule: proof.RuleRefl, Args: []*expr.Expr{c.e}},
		}})
		if err != nil {
			t.Fatalf("%s: encode proof: %v", c.name, err)
		}
		var cond *bcfenc.Condition
		condErr := noPanic(t, c.name+"/DecodeCondition", func() (err error) {
			cond, err = bcfenc.DecodeCondition(condBuf)
			return err
		})
		var pf *proof.Proof
		proofErr := noPanic(t, c.name+"/DecodeProof", func() (err error) {
			pf, err = bcfenc.DecodeProof(proofBuf)
			return err
		})
		if c.masked {
			want := expr.Const(c.e.K, c.e.Width)
			if condErr != nil || proofErr != nil {
				t.Errorf("%s: masked constant rejected: %v / %v", c.name, condErr, proofErr)
			} else if !expr.Equal(cond.Cond, expr.Eq(want, want)) || !expr.Equal(pf.Steps[0].Args[0], want) {
				t.Errorf("%s: decoded %v / %v, want the masked constant %v", c.name, cond.Cond, pf.Steps[0].Args[0], want)
			}
			continue
		}
		if condErr == nil {
			t.Errorf("%s: DecodeCondition accepted it", c.name)
		}
		if proofErr == nil {
			t.Errorf("%s: DecodeProof accepted it", c.name)
		}
	}
}

func noPanic(t *testing.T, what string, f func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", what, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}
