package expr_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/expr"
	"bcf/internal/proof"
)

// shape is a node shape the typing rule rejects.
type shape struct {
	name string
	e    *expr.Expr
	// masked marks the shape the wire cannot carry: the decoders mask a
	// constant to its width, as Table.Const does, so they accept its
	// encoding as the masked constant.
	masked bool
}

// malformed returns the one table of shapes. They are struct literals
// because every constructor refuses them; each one's children are
// well-formed members of a table of their own, so the fault is in the
// node itself and every consumer interns it from outside its table.
func malformed() []shape {
	src := expr.NewTable(0)
	v := src.Var
	return []shape{
		{"arity", &expr.Expr{Op: expr.OpAdd, Width: 64, Args: []*expr.Expr{v(0, 64)}}, false},
		{"operand width", &expr.Expr{Op: expr.OpAdd, Width: 64, Args: []*expr.Expr{v(0, 64), v(1, 32)}}, false},
		{"oversized const", &expr.Expr{Op: expr.OpConst, Width: 8, K: 0x1ff}, true},
		{"predicate width", &expr.Expr{Op: expr.OpEq, Width: 64, Args: []*expr.Expr{v(0, 64), v(1, 64)}}, false},
		{"bad width", &expr.Expr{Op: expr.OpVar, Width: 7, K: 0}, false},
		{"bool operand", &expr.Expr{Op: expr.OpBoolAnd, Width: 1, Args: []*expr.Expr{v(0, 64), v(1, 1)}}, false},
		{"not operand", &expr.Expr{Op: expr.OpBoolNot, Width: 1, Args: []*expr.Expr{v(0, 64)}}, false},
		{"extract range", &expr.Expr{Op: expr.OpExtract, Width: 32, Aux: 40, Args: []*expr.Expr{v(0, 64)}}, false},
		{"zext of bool", &expr.Expr{Op: expr.OpZExt, Width: 64, Args: []*expr.Expr{v(0, 1)}}, false},
		{"narrowing sext", &expr.Expr{Op: expr.OpSExt, Width: 32, Args: []*expr.Expr{v(0, 64)}}, false},
		{"bad op", &expr.Expr{Op: expr.Op(200), Width: 64}, false},
	}
}

// eqLit is (= e e) as a struct literal: a well-typed root over e that no
// table has checked, as a constructor would refuse a malformed e.
func eqLit(e *expr.Expr) *expr.Expr {
	return &expr.Expr{Op: expr.OpEq, Width: 1, Args: []*expr.Expr{e, e}}
}

// TestCheckWellFormed: interning a term into a table applies the typing
// rule to each node from outside it, so every malformed shape is refused
// on its own and below a well-typed root.
func TestCheckWellFormed(t *testing.T) {
	src := expr.NewTable(0)
	good := src.Ule(src.Add(src.Var(0, 64), src.Const(1, 64)), src.Const(15, 64))
	if _, err := expr.NewTable(0).Intern(good); err != nil {
		t.Errorf("good term rejected: %v", err)
	}
	for _, c := range malformed() {
		if _, err := expr.NewTable(0).Intern(c.e); err == nil {
			t.Errorf("%s: Intern accepted it", c.name)
		}
		if _, err := expr.NewTable(0).Intern(eqLit(c.e)); err == nil {
			t.Errorf("%s: Intern accepted it below a well-typed root", c.name)
		}
		if _, err := expr.NewTable(0).Rebuild(c.e.Op, c.e.Width, c.e.Aux, c.e.K, c.e.Args); err == nil {
			t.Errorf("%s: Rebuild accepted it", c.name)
		}
	}
}

// TestDecodersRejectMalformedShapes feeds the raw encoding of every
// malformed shape to both decoders: each must return an error, never
// panic and never hand the shape to the checker. The encoders intern
// what they write, so they refuse the shapes themselves.
func TestDecodersRejectMalformedShapes(t *testing.T) {
	for _, c := range malformed() {
		if _, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: eqLit(c.e)}); err == nil {
			t.Errorf("%s: EncodeCondition wrote it", c.name)
		}
		if _, err := bcfenc.EncodeProof(&proof.Proof{Steps: []proof.Step{
			{Rule: proof.RuleLemmaZeroUle, Args: []*expr.Expr{c.e}},
		}}); err == nil {
			t.Errorf("%s: EncodeProof wrote it", c.name)
		}
		condBuf, proofBuf := rawEncodings(c.e)
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
			tab := expr.NewTable(0)
			want := tab.Const(c.e.K, c.e.Width)
			if condErr != nil || proofErr != nil {
				t.Errorf("%s: masked constant rejected: %v / %v", c.name, condErr, proofErr)
			} else if !expr.Equal(cond.Cond, tab.Eq(want, want)) || !expr.Equal(pf.Steps[0].Args[0], want) {
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

// TestCheckerRejectsMalformedShapes hands every malformed shape to the
// proof checker as a struct literal, once as a step argument and once
// inside the condition. Neither is a member of the checker's table, so
// the checker interns it, and interning must refuse it before any rule
// is applied.
func TestCheckerRejectsMalformedShapes(t *testing.T) {
	tab := expr.NewTable(0)
	good := tab.Var(0, 64)
	// assume ⊢ ¬C; lemma_zero_ule(arg) ⊢ (bvule 0 arg); contradiction ⊢
	// false: a valid proof of C = (bvule 0 arg).
	cond := tab.Ule(tab.Const(0, 64), good)
	zeroUleProof := func(arg *expr.Expr) *proof.Proof {
		return &proof.Proof{Steps: []proof.Step{
			{Rule: proof.RuleAssume},
			{Rule: proof.RuleLemmaZeroUle, Args: []*expr.Expr{arg}},
			{Rule: proof.RuleContradiction, Premises: []uint32{1, 0}},
		}}
	}
	if err := proof.Check(cond, zeroUleProof(good)); err != nil {
		t.Fatalf("the well-formed proof is rejected: %v", err)
	}
	for _, c := range malformed() {
		err := proof.Check(cond, zeroUleProof(c.e))
		if err == nil || !strings.Contains(err.Error(), "malformed argument") {
			t.Errorf("%s as an argument: %v, want a malformed argument", c.name, err)
		}
		err = proof.Check(eqLit(c.e), zeroUleProof(good))
		if err == nil || !strings.Contains(err.Error(), "malformed condition") {
			t.Errorf("%s in the condition: %v, want a malformed condition", c.name, err)
		}
	}
}

// rawEncodings writes the wire encodings the encoders would refuse: a
// condition (= e e) and a one-step lemma_zero_ule proof of e, with e's nodes laid
// out as given (bcfenc's node layout: a header word of op, width, aux
// and argument count, a constant's two words or a variable's one, then
// the argument offsets).
func rawEncodings(e *expr.Expr) (cond, proofBuf []byte) {
	var pool []uint32
	var put func(n *expr.Expr) uint32
	put = func(n *expr.Expr) uint32 {
		var args []uint32
		for _, a := range n.Args {
			args = append(args, put(a))
		}
		off := uint32(len(pool))
		pool = append(pool, uint32(n.Op)|uint32(n.Width)<<8|uint32(n.Aux)<<16|uint32(len(n.Args))<<24)
		switch n.Op {
		case expr.OpConst:
			pool = append(pool, uint32(n.K), uint32(n.K>>32))
		case expr.OpVar:
			pool = append(pool, uint32(n.K))
		}
		return off
	}
	arg := put(e)
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	eqRoot := uint32(len(pool))
	condPool := append(append([]uint32(nil), pool...), uint32(expr.OpEq)|1<<8|2<<24, arg, arg)
	cond = append(words(bcfenc.MagicCondition, bcfenc.Version, uint32(len(condPool)), eqRoot), words(condPool...)...)
	proofBuf = append(words(bcfenc.MagicProof, bcfenc.Version, uint32(len(pool)), 1), words(pool...)...)
	proofBuf = append(proofBuf, words(uint32(proof.RuleLemmaZeroUle)|1<<24, arg)...)
	return cond, proofBuf
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
