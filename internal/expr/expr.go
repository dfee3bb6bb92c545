// Package expr implements the fixed-width bit-vector and boolean
// expression terms used by BCF's symbolic tracking, refinement conditions
// and proofs.
//
// Terms are immutable DAG nodes. Widths are in bits; width 1 denotes a
// boolean. eBPF registers give rise to widths 32 and 64; memory accesses
// to 8 and 16 as well. Because eBPF registers are fixed-size machine
// words, every term denotes a function over finitely many bounded
// variables, so validity of conditions is decidable (§4, Workload
// Delegation).
//
// Every term is built as a member of a Table, which hash-conses the
// terms of one refinement round: a node enters it once, after its
// typing rule, so two members are structurally equal exactly when they
// are the same pointer, and per-node facts (the wire offset, the
// bit-blasted literals, the ground value) live in slices indexed by the
// node's ID. The constructors are the methods of *Table; a nil *Table
// builds nothing.
//
// Well-formedness is one node-local typing rule, applied when a node
// enters a table: every constructor panics on a violation, and Rebuild
// (used by the wire-format decoder) returns it as an error. Since
// operands are checked when they enter, a member is well-formed by
// construction. Intern brings a term from outside the table in and
// re-applies the typing rule to each of its nodes: that is how the proof
// checker admits struct literals and terms from another table.
package expr

import (
	"fmt"
	"strings"
)

// Op enumerates term constructors.
type Op uint8

// Term constructors. Bit-vector operations produce the width of their
// operands (except the width-changing ZExt/SExt/Extract); predicates and
// boolean connectives produce width 1.
const (
	OpInvalid Op = iota
	OpConst      // K = value
	OpVar        // K = variable id

	// Bit-vector arithmetic and logic (two operands, same width).
	OpAdd
	OpSub
	OpMul
	OpUDiv // total: x/0 = 0 (eBPF semantics)
	OpURem // total: x%0 = x (eBPF semantics)
	OpAnd
	OpOr
	OpXor
	OpShl // shift amount taken modulo width (eBPF semantics)
	OpLshr
	OpAshr

	// Unary bit-vector.
	OpNot // bitwise complement
	OpNeg // two's complement negation

	// Width changing. Aux carries the low bit index for Extract.
	OpZExt
	OpSExt
	OpExtract

	// Predicates over bit-vectors (result width 1).
	OpEq
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Boolean connectives (operands and result width 1).
	OpBoolAnd
	OpBoolOr
	OpBoolNot
	OpImplies

	// NumOps is the number of constructors; used by the wire format.
	NumOps
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpVar: "var",
	OpAdd: "bvadd", OpSub: "bvsub", OpMul: "bvmul", OpUDiv: "bvudiv",
	OpURem: "bvurem", OpAnd: "bvand", OpOr: "bvor", OpXor: "bvxor",
	OpShl: "bvshl", OpLshr: "bvlshr", OpAshr: "bvashr",
	OpNot: "bvnot", OpNeg: "bvneg",
	OpZExt: "zero_extend", OpSExt: "sign_extend", OpExtract: "extract",
	OpEq: "=", OpUlt: "bvult", OpUle: "bvule", OpSlt: "bvslt", OpSle: "bvsle",
	OpBoolAnd: "and", OpBoolOr: "or", OpBoolNot: "not", OpImplies: "=>",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsPredicate reports whether the op produces a boolean from bit-vectors.
func (op Op) IsPredicate() bool { return op >= OpEq && op <= OpSle }

// IsBoolConnective reports whether the op combines booleans.
func (op Op) IsBoolConnective() bool { return op >= OpBoolAnd && op <= OpImplies }

// IsBinaryBV reports whether the op is a two-operand bit-vector operation.
func (op Op) IsBinaryBV() bool { return op >= OpAdd && op <= OpAshr }

// Expr is one immutable term node.
type Expr struct {
	Op    Op
	Width uint8 // result width in bits: 1, 8, 16, 32 or 64
	Aux   uint8 // Extract: low bit index
	flags uint8
	id    uint32 // index in tab
	K     uint64
	Args  []*Expr
	tab   *Table // the table the node is a member of; nil for a struct literal
}

// Node flags, set on members only.
const (
	flagGround = 1 << iota // no variable below the node
	flagValued             // tab.vals[id] holds the node's ground value
)

// Mask returns the value mask for a width.
func Mask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// SignExtend interprets the low width bits of v as signed and extends.
func SignExtend(v uint64, width uint8) int64 {
	if width >= 64 {
		return int64(v)
	}
	shift := 64 - uint(width)
	return int64(v<<shift) >> shift
}

func groundFlag(op Op, args []*Expr) uint8 {
	if op == OpVar {
		return 0
	}
	for _, a := range args {
		if !a.IsGround() {
			return 0
		}
	}
	return flagGround
}

// must is how the constructors apply the typing rule: building an
// ill-typed term from Go code is a programming error.
func must(e *Expr, err error) *Expr {
	if err != nil {
		panic(err)
	}
	return e
}

// adopt returns a as a member of t.
func (t *Table) adopt(a *Expr) *Expr {
	if a.tab == t {
		return a
	}
	return must(t.Intern(a))
}

// Const returns the constant term of the given width.
func (t *Table) Const(v uint64, width uint8) *Expr {
	return must(t.node(OpConst, width, 0, v&Mask(width)))
}

// Bool returns a boolean constant.
func (t *Table) Bool(v bool) *Expr {
	k := uint64(0)
	if v {
		k = 1
	}
	return must(t.node(OpConst, 1, 0, k))
}

// Var returns the variable term with the given id and width.
func (t *Table) Var(id uint32, width uint8) *Expr {
	return must(t.node(OpVar, width, 0, uint64(id)))
}

// Bin builds a binary bit-vector operation.
func (t *Table) Bin(op Op, a, b *Expr) *Expr { return must(t.node(op, a.Width, 0, 0, a, b)) }

// Convenience binary constructors.
func (t *Table) Add(a, b *Expr) *Expr  { return t.Bin(OpAdd, a, b) }
func (t *Table) Sub(a, b *Expr) *Expr  { return t.Bin(OpSub, a, b) }
func (t *Table) Mul(a, b *Expr) *Expr  { return t.Bin(OpMul, a, b) }
func (t *Table) UDiv(a, b *Expr) *Expr { return t.Bin(OpUDiv, a, b) }
func (t *Table) URem(a, b *Expr) *Expr { return t.Bin(OpURem, a, b) }
func (t *Table) And(a, b *Expr) *Expr  { return t.Bin(OpAnd, a, b) }
func (t *Table) Or(a, b *Expr) *Expr   { return t.Bin(OpOr, a, b) }
func (t *Table) Xor(a, b *Expr) *Expr  { return t.Bin(OpXor, a, b) }
func (t *Table) Shl(a, b *Expr) *Expr  { return t.Bin(OpShl, a, b) }
func (t *Table) Lshr(a, b *Expr) *Expr { return t.Bin(OpLshr, a, b) }
func (t *Table) Ashr(a, b *Expr) *Expr { return t.Bin(OpAshr, a, b) }

// Not returns the bitwise complement.
func (t *Table) Not(a *Expr) *Expr { return must(t.node(OpNot, a.Width, 0, 0, a)) }

// Neg returns the two's-complement negation.
func (t *Table) Neg(a *Expr) *Expr { return must(t.node(OpNeg, a.Width, 0, 0, a)) }

// ZExt zero-extends a to the given width (a itself at equal width).
func (t *Table) ZExt(a *Expr, width uint8) *Expr {
	if width == a.Width {
		return t.adopt(a)
	}
	return must(t.node(OpZExt, width, 0, 0, a))
}

// SExt sign-extends a to the given width (a itself at equal width).
func (t *Table) SExt(a *Expr, width uint8) *Expr {
	if width == a.Width {
		return t.adopt(a)
	}
	return must(t.node(OpSExt, width, 0, 0, a))
}

// Extract returns bits [lo, lo+width) of a (a itself for all its bits).
func (t *Table) Extract(a *Expr, lo uint8, width uint8) *Expr {
	if lo == 0 && width == a.Width {
		return t.adopt(a)
	}
	return must(t.node(OpExtract, width, lo, 0, a))
}

// Pred builds a comparison predicate.
func (t *Table) Pred(op Op, a, b *Expr) *Expr { return must(t.node(op, 1, 0, 0, a, b)) }

// Convenience predicate constructors.
func (t *Table) Eq(a, b *Expr) *Expr  { return t.Pred(OpEq, a, b) }
func (t *Table) Ult(a, b *Expr) *Expr { return t.Pred(OpUlt, a, b) }
func (t *Table) Ule(a, b *Expr) *Expr { return t.Pred(OpUle, a, b) }
func (t *Table) Slt(a, b *Expr) *Expr { return t.Pred(OpSlt, a, b) }
func (t *Table) Sle(a, b *Expr) *Expr { return t.Pred(OpSle, a, b) }

// Ne returns not(a = b).
func (t *Table) Ne(a, b *Expr) *Expr { return t.BoolNot(t.Eq(a, b)) }

// BoolAnd returns the conjunction of a and b.
func (t *Table) BoolAnd(a, b *Expr) *Expr { return must(t.node(OpBoolAnd, 1, 0, 0, a, b)) }

// BoolOr returns the disjunction of a and b.
func (t *Table) BoolOr(a, b *Expr) *Expr { return must(t.node(OpBoolOr, 1, 0, 0, a, b)) }

// BoolNot returns the negation of a.
func (t *Table) BoolNot(a *Expr) *Expr { return must(t.node(OpBoolNot, 1, 0, 0, a)) }

// Implies returns a => b.
func (t *Table) Implies(a, b *Expr) *Expr { return must(t.node(OpImplies, 1, 0, 0, a, b)) }

// Conj folds a list of booleans into a conjunction; empty list is true.
func (t *Table) Conj(es ...*Expr) *Expr {
	var out *Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = t.adopt(e)
		} else {
			out = t.BoolAnd(out, e)
		}
	}
	if out == nil {
		return t.Bool(true)
	}
	return out
}

// Rebuild constructs a node from decoded parts. It applies the same
// typing rule as the constructors but returns a violation as an error,
// so the wire-format decoder can build every node from untrusted bytes
// without panicking. Only the new node is checked: args must themselves
// be well-formed, as they are when they came from Rebuild or a
// constructor (args from outside t are interned, which checks them).
// Unlike Const, Rebuild rejects a constant with bits above its width.
func (t *Table) Rebuild(op Op, width uint8, aux uint8, k uint64, args []*Expr) (*Expr, error) {
	return t.node(op, width, aux, k, args...)
}

// ReplaceArg returns t with child i replaced by c, built in t's table.
// The new node is type-checked, so rule application cannot construct
// ill-typed terms.
func ReplaceArg(t *Expr, i int, c *Expr) (*Expr, error) {
	var args [2]*Expr
	if i < 0 || i >= len(t.Args) || len(t.Args) > len(args) {
		return nil, fmt.Errorf("expr: child index %d out of range", i)
	}
	n := copy(args[:], t.Args)
	args[i] = c
	return t.tab.node(t.Op, t.Width, t.Aux, t.K, args[:n]...)
}

// BoolNot returns the negation of a, built in a's table. It is the one
// constructor that is not a *Table method: the benchmark's ledger
// bit-blasts the negation of a decoded condition with it.
func BoolNot(a *Expr) *Expr { return a.tab.BoolNot(a) }

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.K, true
	}
	return 0, false
}

// IsTrue reports whether e is the boolean constant true.
func (e *Expr) IsTrue() bool { return e.Op == OpConst && e.Width == 1 && e.K == 1 }

// IsFalse reports whether e is the boolean constant false.
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.Width == 1 && e.K == 0 }

// Table returns the table e is a member of, or nil for a struct literal.
func (e *Expr) Table() *Table { return e.tab }

// ID returns e's index in its table: members of one table have the IDs
// 0 to Len()-1, so per-node data can live in a slice.
func (e *Expr) ID() uint32 { return e.id }

// Equal reports structural equality. Two members of one table are equal
// only when they are the same node.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || (a.tab != nil && a.tab == b.tab) {
		return false
	}
	if a.Op != b.Op || a.Width != b.Width ||
		a.Aux != b.Aux || a.K != b.K || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// Eval evaluates the term under the assignment env (variable id -> value).
// Results are truncated to the term's width; booleans are 0 or 1. It
// walks the term as a tree; GroundValue is the DAG-linear form for
// ground members.
func (e *Expr) Eval(env func(id uint32) uint64) uint64 {
	switch e.Op {
	case OpConst:
		return e.K & Mask(e.Width)
	case OpVar:
		return env(uint32(e.K)) & Mask(e.Width)
	}
	var b uint64
	if len(e.Args) > 1 {
		b = e.Args[1].Eval(env)
	}
	return evalOp(e, e.Args[0].Eval(env), b)
}

// GroundValue returns the value of the member e with every variable
// read as 0, which for a ground term is its value. It is computed once
// per distinct node and kept in e's table.
func (e *Expr) GroundValue() uint64 {
	t := e.tab
	switch {
	case e.Op == OpConst:
		return e.K
	case e.Op == OpVar:
		return 0
	case e.flags&flagValued != 0:
		return t.vals[e.id]
	}
	t.work++
	var b uint64
	deep := len(e.Args[0].Args) > 0
	if len(e.Args) > 1 {
		b = e.Args[1].GroundValue()
		deep = deep || len(e.Args[1].Args) > 0
	}
	v := evalOp(e, e.Args[0].GroundValue(), b)
	// A node over leaves costs one step to recompute, so only deeper
	// nodes are kept: folding a constant expression stores nothing.
	if deep {
		if int(e.id) >= len(t.vals) {
			t.vals = append(t.vals, make([]uint64, t.n-len(t.vals))...)
		}
		t.vals[e.id] = v
		e.flags |= flagValued
	}
	return v
}

// evalOp applies e's operator to its operand values a and b (b is
// unused by the unary operators).
func evalOp(e *Expr, a, b uint64) uint64 {
	m := Mask(e.Width)
	switch e.Op {
	case OpNot:
		return ^a & m
	case OpNeg:
		return -a & m
	case OpZExt:
		return a
	case OpSExt:
		return uint64(SignExtend(a, e.Args[0].Width)) & m
	case OpExtract:
		return (a >> e.Aux) & m
	case OpBoolNot:
		return a ^ 1
	case OpAdd:
		return (a + b) & m
	case OpSub:
		return (a - b) & m
	case OpMul:
		return (a * b) & m
	case OpUDiv:
		if b == 0 {
			return 0
		}
		return (a / b) & m
	case OpURem:
		if b == 0 {
			return a & m
		}
		return (a % b) & m
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return (a << (b % uint64(e.Width))) & m
	case OpLshr:
		return a >> (b % uint64(e.Width))
	case OpAshr:
		sh := b % uint64(e.Width)
		return uint64(SignExtend(a, e.Width)>>sh) & m
	}
	aw := e.Args[0].Width
	switch e.Op {
	case OpEq:
		return b2u(a == b)
	case OpUlt:
		return b2u(a < b)
	case OpUle:
		return b2u(a <= b)
	case OpSlt:
		return b2u(SignExtend(a, aw) < SignExtend(b, aw))
	case OpSle:
		return b2u(SignExtend(a, aw) <= SignExtend(b, aw))
	case OpBoolAnd:
		return a & b
	case OpBoolOr:
		return a | b
	case OpImplies:
		return (a ^ 1) | b
	}
	panic(fmt.Sprintf("expr: eval of %s", e.Op))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// IsGround reports whether the term contains no variables: a flag set
// when a member was built, or a walk for a struct literal.
func (e *Expr) IsGround() bool {
	if e.tab != nil {
		return e.flags&flagGround != 0
	}
	if e.Op == OpVar {
		return false
	}
	for _, a := range e.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// String renders the term in SMT-LIB-like prefix notation.
func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb)
	return sb.String()
}

func (e *Expr) write(sb *strings.Builder) {
	switch e.Op {
	case OpConst:
		if e.Width == 1 {
			if e.K == 1 {
				sb.WriteString("true")
			} else {
				sb.WriteString("false")
			}
			return
		}
		fmt.Fprintf(sb, "%#x", e.K)
	case OpVar:
		fmt.Fprintf(sb, "sym%d", e.K)
	case OpExtract:
		fmt.Fprintf(sb, "((_ extract %d %d) ", int(e.Aux)+int(e.Width)-1, e.Aux)
		e.Args[0].write(sb)
		sb.WriteByte(')')
	case OpZExt, OpSExt:
		fmt.Fprintf(sb, "((_ %s %d) ", e.Op, int(e.Width)-int(e.Args[0].Width))
		e.Args[0].write(sb)
		sb.WriteByte(')')
	default:
		sb.WriteByte('(')
		sb.WriteString(e.Op.String())
		for _, a := range e.Args {
			sb.WriteByte(' ')
			a.write(sb)
		}
		sb.WriteByte(')')
	}
}

// ValidWidth reports whether w is a legal term width.
func ValidWidth(w uint8) bool {
	switch w {
	case 1, 8, 16, 32, 64:
		return true
	}
	return false
}

// typecheck is the typing rule for one node: a legal width and op, the
// op's arity, operand widths, constants within their width and extracts
// within their operand. It looks at the node's operands only through
// their widths.
func (e *Expr) typecheck() error {
	if !ValidWidth(e.Width) {
		return fmt.Errorf("expr: invalid width %d", e.Width)
	}
	wantArgs := 0
	switch {
	case e.Op == OpConst || e.Op == OpVar:
		if e.K&^Mask(e.Width) != 0 && e.Op == OpConst {
			return fmt.Errorf("expr: constant %#x exceeds width %d", e.K, e.Width)
		}
	case e.Op == OpNot || e.Op == OpNeg || e.Op == OpBoolNot ||
		e.Op == OpZExt || e.Op == OpSExt || e.Op == OpExtract:
		wantArgs = 1
	case e.Op.IsBinaryBV() || e.Op.IsPredicate() || e.Op.IsBoolConnective():
		wantArgs = 2
	default:
		return fmt.Errorf("expr: invalid op %d", e.Op)
	}
	if len(e.Args) != wantArgs {
		return fmt.Errorf("expr: %s arity %d, want %d", e.Op, len(e.Args), wantArgs)
	}
	switch {
	case e.Op.IsBinaryBV():
		if e.Args[0].Width != e.Width || e.Args[1].Width != e.Width {
			return fmt.Errorf("expr: %s width mismatch", e.Op)
		}
	case e.Op.IsPredicate():
		if e.Width != 1 || e.Args[0].Width != e.Args[1].Width {
			return fmt.Errorf("expr: %s width mismatch", e.Op)
		}
	case e.Op.IsBoolConnective():
		if e.Width != 1 || e.Args[0].Width != 1 ||
			(len(e.Args) > 1 && e.Args[1].Width != 1) {
			return fmt.Errorf("expr: %s needs boolean operands", e.Op)
		}
	case e.Op == OpNot || e.Op == OpNeg:
		if e.Args[0].Width != e.Width {
			return fmt.Errorf("expr: %s width mismatch", e.Op)
		}
	case e.Op == OpZExt || e.Op == OpSExt:
		if e.Args[0].Width >= e.Width || e.Width == 1 || e.Args[0].Width == 1 {
			return fmt.Errorf("expr: %s width mismatch", e.Op)
		}
	case e.Op == OpExtract:
		if uint(e.Aux)+uint(e.Width) > uint(e.Args[0].Width) || e.Args[0].Width == 1 {
			return fmt.Errorf("expr: extract out of range")
		}
	}
	return nil
}
