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
// Well-formedness is one node-local typing rule, applied when a node is
// built: every constructor panics on a violation, and Rebuild (used by
// the wire-format decoder) returns it as an error. Since children are
// checked when they are built, a term made only through this package is
// well-formed by construction, and checking it costs one rule
// application per node. CheckWellFormed re-walks terms whose nodes may
// bypass the constructors (struct literals); the proof checker runs it
// once at entry.
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
	K     uint64
	Args  []*Expr
	hash  uint64
}

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

func newExpr(op Op, width uint8, aux uint8, k uint64, args ...*Expr) (*Expr, error) {
	e := &Expr{Op: op, Width: width, Aux: aux, K: k, Args: args}
	if err := e.typecheck(); err != nil {
		return nil, err
	}
	h := uint64(op)<<56 ^ uint64(width)<<48 ^ uint64(aux)<<40 ^ mix(k)
	for _, a := range args {
		h = h*0x9e3779b97f4a7c15 + a.hash
	}
	e.hash = h
	return e, nil
}

// must is how the exported constructors apply the typing rule: building
// an ill-typed term from Go code is a programming error.
func must(e *Expr, err error) *Expr {
	if err != nil {
		panic(err)
	}
	return e
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Const returns the constant term of the given width.
func Const(v uint64, width uint8) *Expr {
	return must(newExpr(OpConst, width, 0, v&Mask(width)))
}

// Bool returns a boolean constant.
func Bool(v bool) *Expr {
	k := uint64(0)
	if v {
		k = 1
	}
	return must(newExpr(OpConst, 1, 0, k))
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Var returns the variable term with the given id and width.
func Var(id uint32, width uint8) *Expr {
	return must(newExpr(OpVar, width, 0, uint64(id)))
}

// Bin builds a binary bit-vector operation.
func Bin(op Op, a, b *Expr) *Expr { return must(newExpr(op, a.Width, 0, 0, a, b)) }

// Convenience binary constructors.
func Add(a, b *Expr) *Expr  { return Bin(OpAdd, a, b) }
func Sub(a, b *Expr) *Expr  { return Bin(OpSub, a, b) }
func Mul(a, b *Expr) *Expr  { return Bin(OpMul, a, b) }
func UDiv(a, b *Expr) *Expr { return Bin(OpUDiv, a, b) }
func URem(a, b *Expr) *Expr { return Bin(OpURem, a, b) }
func And(a, b *Expr) *Expr  { return Bin(OpAnd, a, b) }
func Or(a, b *Expr) *Expr   { return Bin(OpOr, a, b) }
func Xor(a, b *Expr) *Expr  { return Bin(OpXor, a, b) }
func Shl(a, b *Expr) *Expr  { return Bin(OpShl, a, b) }
func Lshr(a, b *Expr) *Expr { return Bin(OpLshr, a, b) }
func Ashr(a, b *Expr) *Expr { return Bin(OpAshr, a, b) }

// Not returns the bitwise complement.
func Not(a *Expr) *Expr { return must(newExpr(OpNot, a.Width, 0, 0, a)) }

// Neg returns the two's-complement negation.
func Neg(a *Expr) *Expr { return must(newExpr(OpNeg, a.Width, 0, 0, a)) }

// ZExt zero-extends a to the given width (a itself at equal width).
func ZExt(a *Expr, width uint8) *Expr {
	if width == a.Width {
		return a
	}
	return must(newExpr(OpZExt, width, 0, 0, a))
}

// SExt sign-extends a to the given width (a itself at equal width).
func SExt(a *Expr, width uint8) *Expr {
	if width == a.Width {
		return a
	}
	return must(newExpr(OpSExt, width, 0, 0, a))
}

// Extract returns bits [lo, lo+width) of a (a itself for all its bits).
func Extract(a *Expr, lo uint8, width uint8) *Expr {
	if lo == 0 && width == a.Width {
		return a
	}
	return must(newExpr(OpExtract, width, lo, 0, a))
}

// Pred builds a comparison predicate.
func Pred(op Op, a, b *Expr) *Expr { return must(newExpr(op, 1, 0, 0, a, b)) }

// Convenience predicate constructors.
func Eq(a, b *Expr) *Expr  { return Pred(OpEq, a, b) }
func Ult(a, b *Expr) *Expr { return Pred(OpUlt, a, b) }
func Ule(a, b *Expr) *Expr { return Pred(OpUle, a, b) }
func Slt(a, b *Expr) *Expr { return Pred(OpSlt, a, b) }
func Sle(a, b *Expr) *Expr { return Pred(OpSle, a, b) }

// Ne returns not(a = b).
func Ne(a, b *Expr) *Expr { return BoolNot(Eq(a, b)) }

// BoolAnd returns the conjunction of a and b.
func BoolAnd(a, b *Expr) *Expr { return must(newExpr(OpBoolAnd, 1, 0, 0, a, b)) }

// BoolOr returns the disjunction of a and b.
func BoolOr(a, b *Expr) *Expr { return must(newExpr(OpBoolOr, 1, 0, 0, a, b)) }

// BoolNot returns the negation of a.
func BoolNot(a *Expr) *Expr { return must(newExpr(OpBoolNot, 1, 0, 0, a)) }

// Implies returns a => b.
func Implies(a, b *Expr) *Expr { return must(newExpr(OpImplies, 1, 0, 0, a, b)) }

// Conj folds a list of booleans into a conjunction; empty list is true.
func Conj(es ...*Expr) *Expr {
	var out *Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = BoolAnd(out, e)
		}
	}
	if out == nil {
		return True
	}
	return out
}

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

// Hash returns a structural hash of the term.
func (e *Expr) Hash() uint64 { return e.hash }

// Equal reports structural equality.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash || a.Op != b.Op || a.Width != b.Width ||
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
// Results are truncated to the term's width; booleans are 0 or 1.
func (e *Expr) Eval(env func(id uint32) uint64) uint64 {
	m := Mask(e.Width)
	switch e.Op {
	case OpConst:
		return e.K & m
	case OpVar:
		return env(uint32(e.K)) & m
	case OpNot:
		return ^e.Args[0].Eval(env) & m
	case OpNeg:
		return -e.Args[0].Eval(env) & m
	case OpZExt:
		return e.Args[0].Eval(env)
	case OpSExt:
		return uint64(SignExtend(e.Args[0].Eval(env), e.Args[0].Width)) & m
	case OpExtract:
		return (e.Args[0].Eval(env) >> e.Aux) & m
	case OpBoolNot:
		return e.Args[0].Eval(env) ^ 1
	}
	a := e.Args[0].Eval(env)
	b := e.Args[1].Eval(env)
	aw := e.Args[0].Width
	switch e.Op {
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

// Size returns the number of nodes in the term viewed as a DAG-unfolded
// tree (shared nodes counted once via the visited set).
func (e *Expr) Size() int {
	seen := map[*Expr]bool{}
	var walk func(*Expr) int
	walk = func(n *Expr) int {
		if seen[n] {
			return 0
		}
		seen[n] = true
		total := 1
		for _, a := range n.Args {
			total += walk(a)
		}
		return total
	}
	return walk(e)
}

// Vars collects the variable ids (with widths) appearing in e.
func (e *Expr) Vars() map[uint32]uint8 {
	out := map[uint32]uint8{}
	seen := map[*Expr]bool{}
	var walk func(*Expr)
	walk = func(n *Expr) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == OpVar {
			out[uint32(n.K)] = n.Width
		}
		for _, a := range n.Args {
			walk(a)
		}
	}
	walk(e)
	return out
}

// Rebuild constructs a node from decoded parts, computing its
// structural hash. It applies the same typing rule as the constructors
// but returns a violation as an error, so the wire-format decoder can
// build every node from untrusted bytes without panicking. Only the new
// node is checked: args must themselves be well-formed, as they are when
// they came from Rebuild or a constructor. Unlike Const, Rebuild rejects
// a constant with bits above its width.
func Rebuild(op Op, width uint8, aux uint8, k uint64, args []*Expr) (*Expr, error) {
	return newExpr(op, width, aux, k, args...)
}

// IsGround reports whether the term contains no variables.
func (e *Expr) IsGround() bool {
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

// ReplaceArg returns a copy of t with child i replaced by c. The new node
// is type-checked, so rule application cannot construct ill-typed terms.
func ReplaceArg(t *Expr, i int, c *Expr) (*Expr, error) {
	if i < 0 || i >= len(t.Args) {
		return nil, fmt.Errorf("expr: child index %d out of range", i)
	}
	args := make([]*Expr, len(t.Args))
	copy(args, t.Args)
	args[i] = c
	return newExpr(t.Op, t.Width, t.Aux, t.K, args...)
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

// CheckWellFormed applies the typing rule to every node reachable from
// e. seen holds the nodes already validated and is updated, so one set
// shared across several terms walks each distinct node once in total;
// nil means a fresh set. Terms built through this package are
// well-formed by construction; this walk is for terms that may contain
// struct literals, and the proof checker runs it once at entry.
func (e *Expr) CheckWellFormed(seen map[*Expr]bool) error {
	if seen == nil {
		seen = map[*Expr]bool{}
	}
	var walk func(*Expr) error
	walk = func(n *Expr) error {
		if seen[n] {
			return nil
		}
		seen[n] = true
		if err := n.typecheck(); err != nil {
			return err
		}
		for _, a := range n.Args {
			if err := walk(a); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e)
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
