// Package bitblast lowers fixed-width bit-vector formulas (internal/expr)
// to CNF via a deterministic Tseitin transformation.
//
// Determinism is a correctness requirement, not an optimization: the
// user-space prover and the in-kernel proof checker each run this encoder
// on the (byte-identical) refinement condition and must obtain the exact
// same clause list, because resolution proofs reference input clauses by
// index. The encoding is a pure function of the formula's structure:
// nodes are hash-consed structurally, children are visited left to right,
// and SAT variables are numbered in first-visit order.
package bitblast

import (
	"fmt"
	"slices"

	"bcf/internal/expr"
	"bcf/internal/sat"
)

// CNF is the result of encoding a boolean term.
type CNF struct {
	NVars   int
	Clauses [][]sat.Lit
	// Inputs maps expr variable ids to their bit variables (LSB first),
	// used to extract counterexample models.
	Inputs map[uint32][]sat.Lit
}

// Encode lowers a width-1 term to CNF that is satisfiable iff some
// assignment to the term's variables makes it true. Each distinct node
// is encoded once, by its expr.Table ID: a term outside any table (a
// struct literal) is interned into a new one, which type-checks its
// nodes. It is new(Encoder).Encode(f).
func Encode(f *expr.Expr) (*CNF, error) {
	return new(Encoder).Encode(f)
}

// Encoder bit-blasts one formula after another, keeping its buffers: the
// clause literals and headers, the per-node literal tables, the input map
// and a slab every node's bit vector is cut from. The CNF an Encode
// returns is valid until the Encoder's next Encode. The zero Encoder is
// ready to use; an Encoder is single-goroutine.
type Encoder struct {
	nVars int
	lits  []sat.Lit // every emitted clause's literals, back to back
	ends  []int32   // clause i ends at lits[ends[i]]
	// The literals already encoded for a node, by its table ID: bits for
	// a bit-vector, lit (0 until encoded) for a boolean. Members of one
	// table are equal only when they are the same node, so this is the
	// structural hash-consing the encoding's determinism rests on.
	bits   [][]sat.Lit
	lit    []sat.Lit
	inputs map[uint32][]sat.Lit
	// slab holds the bit vectors vec cuts; slabNeed counts what this
	// Encode has asked vec for.
	slab     []sat.Lit
	slabNeed int
	clauses  [][]sat.Lit
}

// Encode lowers a width-1 term to CNF, as the package-level Encode does,
// reusing the buffers of the Encoder's previous Encode.
func (e *Encoder) Encode(f *expr.Expr) (*CNF, error) {
	if f.Width != 1 {
		return nil, fmt.Errorf("bitblast: formula must have width 1, got %d", f.Width)
	}
	tab := f.Table()
	if tab == nil {
		tab = expr.NewTable(0)
	}
	f, err := tab.Intern(f)
	if err != nil {
		return nil, fmt.Errorf("bitblast: %w", err)
	}
	e.reset(tab.Len())
	// Variable 1 is the constant-true anchor.
	e.newVar()
	e.emit(litTrue(e))
	root, err := e.encodeBool(f)
	if err != nil {
		return nil, err
	}
	e.emit(root)
	// Each clause is a full-slice view of the literal buffer, so no
	// clause can grow into its neighbour.
	e.clauses = slices.Grow(e.clauses[:0], len(e.ends))
	start := int32(0)
	for _, end := range e.ends {
		e.clauses = append(e.clauses, e.lits[start:end:end])
		start = end
	}
	// A new CNF header, not one kept in the Encoder, lets a one-shot
	// Encoder stay on the stack.
	return &CNF{NVars: e.nVars, Clauses: e.clauses, Inputs: e.inputs}, nil
}

// reset empties the encoder for a formula whose table has n nodes. A
// slab the last Encode outgrew is replaced by one that would have held
// all of its vectors; a new Encoder has none, so a one-shot Encode
// allocates each vector on its own and no more than that.
func (e *Encoder) reset(n int) {
	e.nVars = 0
	e.lits = e.lits[:0]
	e.ends = e.ends[:0]
	clear(e.bits) // drop the last formula's vectors
	e.bits = append(e.bits[:0], make([][]sat.Lit, n)...)
	e.lit = append(e.lit[:0], make([]sat.Lit, n)...)
	if e.inputs == nil {
		e.inputs = map[uint32][]sat.Lit{}
	}
	clear(e.inputs)
	e.slab = slices.Grow(e.slab[:0], e.slabNeed)
	e.slabNeed = 0
	clear(e.clauses) // the old headers would keep the old literals alive
}

// vec returns w zero literals for a bit vector, cut from the slab when it
// has room and allocated on their own otherwise.
func (e *Encoder) vec(w int) []sat.Lit {
	e.slabNeed += w
	n := len(e.slab)
	if cap(e.slab)-n < w {
		return make([]sat.Lit, w)
	}
	e.slab = e.slab[:n+w]
	v := e.slab[n : n+w : n+w]
	clear(v)
	return v
}

func litTrue(e *Encoder) sat.Lit  { return 1 }
func litFalse(e *Encoder) sat.Lit { return -1 }

func (e *Encoder) newVar() sat.Lit {
	e.nVars++
	return sat.Lit(e.nVars)
}

// emit appends a clause to the literal buffer.
func (e *Encoder) emit(lits ...sat.Lit) {
	e.lits = append(e.lits, lits...)
	e.ends = append(e.ends, int32(len(e.lits)))
}

func (e *Encoder) constLit(b bool) sat.Lit {
	if b {
		return litTrue(e)
	}
	return litFalse(e)
}

// ---- gate constructors (with constant folding) ----

func (e *Encoder) mkNot(a sat.Lit) sat.Lit { return -a }

func (e *Encoder) mkAnd(a, b sat.Lit) sat.Lit {
	t, f := litTrue(e), litFalse(e)
	switch {
	case a == f || b == f:
		return f
	case a == t:
		return b
	case b == t:
		return a
	case a == b:
		return a
	case a == -b:
		return f
	}
	o := e.newVar()
	e.emit(-o, a)
	e.emit(-o, b)
	e.emit(o, -a, -b)
	return o
}

func (e *Encoder) mkOr(a, b sat.Lit) sat.Lit {
	return -e.mkAnd(-a, -b)
}

func (e *Encoder) mkXor(a, b sat.Lit) sat.Lit {
	t, f := litTrue(e), litFalse(e)
	switch {
	case a == f:
		return b
	case b == f:
		return a
	case a == t:
		return -b
	case b == t:
		return -a
	case a == b:
		return f
	case a == -b:
		return t
	}
	o := e.newVar()
	e.emit(-o, a, b)
	e.emit(-o, -a, -b)
	e.emit(o, -a, b)
	e.emit(o, a, -b)
	return o
}

func (e *Encoder) mkXor3(a, b, c sat.Lit) sat.Lit {
	return e.mkXor(e.mkXor(a, b), c)
}

// mkMaj returns the majority of three literals (the carry function).
func (e *Encoder) mkMaj(a, b, c sat.Lit) sat.Lit {
	return e.mkOr(e.mkAnd(a, b), e.mkOr(e.mkAnd(a, c), e.mkAnd(b, c)))
}

// mkITE returns c ? t : f.
func (e *Encoder) mkITE(c, t, f sat.Lit) sat.Lit {
	return e.mkOr(e.mkAnd(c, t), e.mkAnd(-c, f))
}

func (e *Encoder) mkEqLit(a, b sat.Lit) sat.Lit { return -e.mkXor(a, b) }

// ---- bit-vector encodings ----

// encodeBV returns the bit literals (LSB first) of a bit-vector term.
func (e *Encoder) encodeBV(n *expr.Expr) ([]sat.Lit, error) {
	if n.Width == 1 {
		l, err := e.encodeBool(n)
		if err != nil {
			return nil, err
		}
		v := e.vec(1)
		v[0] = l
		return v, nil
	}
	if bits := e.bits[n.ID()]; bits != nil {
		return bits, nil
	}
	w := int(n.Width)
	var bits []sat.Lit
	switch n.Op {
	case expr.OpConst:
		bits = e.vec(w)
		for i := 0; i < w; i++ {
			bits[i] = e.constLit(n.K&(1<<uint(i)) != 0)
		}
	case expr.OpVar:
		id := uint32(n.K)
		if in, ok := e.inputs[id]; ok {
			bits = in
		} else {
			bits = e.vec(w)
			for i := range bits {
				bits[i] = e.newVar()
			}
			e.inputs[id] = bits
		}
	case expr.OpNot:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		bits = e.vec(w)
		for i := range bits {
			bits[i] = -a[i]
		}
	case expr.OpNeg:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		na := e.vec(w)
		for i := range na {
			na[i] = -a[i]
		}
		bits = e.adder(na, e.constBits(0, w), litTrue(e))
	case expr.OpAnd, expr.OpOr, expr.OpXor:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		bits = e.vec(w)
		for i := 0; i < w; i++ {
			switch n.Op {
			case expr.OpAnd:
				bits[i] = e.mkAnd(a[i], b[i])
			case expr.OpOr:
				bits[i] = e.mkOr(a[i], b[i])
			default:
				bits[i] = e.mkXor(a[i], b[i])
			}
		}
	case expr.OpAdd:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		bits = e.adder(a, b, litFalse(e))
	case expr.OpSub:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		nb := e.vec(w)
		for i := range nb {
			nb[i] = -b[i]
		}
		bits = e.adder(a, nb, litTrue(e))
	case expr.OpMul:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		bits = e.multiplier(a, b)
	case expr.OpShl, expr.OpLshr, expr.OpAshr:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		bits = e.shifter(n.Op, a, b)
	case expr.OpZExt:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		bits = e.vec(w)
		copy(bits, a)
		for i := len(a); i < w; i++ {
			bits[i] = litFalse(e)
		}
	case expr.OpSExt:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		bits = e.vec(w)
		copy(bits, a)
		for i := len(a); i < w; i++ {
			bits[i] = a[len(a)-1]
		}
	case expr.OpExtract:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		bits = e.vec(w)
		copy(bits, a[n.Aux:int(n.Aux)+w])
	case expr.OpUDiv, expr.OpURem:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return nil, err
		}
		q, r, err := e.divider(a, b)
		if err != nil {
			return nil, err
		}
		if n.Op == expr.OpUDiv {
			bits = q
		} else {
			bits = r
		}
	default:
		return nil, fmt.Errorf("bitblast: unexpected bit-vector op %s", n.Op)
	}
	e.bits[n.ID()] = bits
	return bits, nil
}

func (e *Encoder) constBits(v uint64, w int) []sat.Lit {
	bits := e.vec(w)
	for i := 0; i < w; i++ {
		bits[i] = e.constLit(v&(1<<uint(i)) != 0)
	}
	return bits
}

// adder builds a ripple-carry adder a + b + cin (result truncated to w).
func (e *Encoder) adder(a, b []sat.Lit, cin sat.Lit) []sat.Lit {
	w := len(a)
	out := e.vec(w)
	carry := cin
	for i := 0; i < w; i++ {
		out[i] = e.mkXor3(a[i], b[i], carry)
		if i+1 < w {
			carry = e.mkMaj(a[i], b[i], carry)
		}
	}
	return out
}

// multiplier builds a shift-and-add multiplier (truncated to w).
func (e *Encoder) multiplier(a, b []sat.Lit) []sat.Lit {
	w := len(a)
	acc := e.constBits(0, w)
	for i := 0; i < w; i++ {
		// partial = (a << i) & b[i]
		partial := e.vec(w)
		for j := 0; j < w; j++ {
			if j < i {
				partial[j] = litFalse(e)
			} else {
				partial[j] = e.mkAnd(a[j-i], b[i])
			}
		}
		acc = e.adder(acc, partial, litFalse(e))
	}
	return acc
}

// divider introduces fresh quotient/remainder vectors constrained by the
// defining relation a = q·b + r ∧ r < b (computed at double width so the
// product cannot wrap), with eBPF's total semantics for b = 0 (quotient
// 0, remainder a).
func (e *Encoder) divider(a, b []sat.Lit) ([]sat.Lit, []sat.Lit, error) {
	w := len(a)
	if w > 64 {
		return nil, nil, fmt.Errorf("bitblast: divider width %d", w)
	}
	q := e.vec(w)
	r := e.vec(w)
	for i := 0; i < w; i++ {
		q[i] = e.newVar()
		r[i] = e.newVar()
	}
	f := litFalse(e)
	// bz := (b == 0)
	bz := litTrue(e)
	for i := 0; i < w; i++ {
		bz = e.mkAnd(bz, -b[i])
	}
	// Double-width product q·b plus r must equal a (zero-extended).
	ext := func(v []sat.Lit) []sat.Lit {
		out := e.vec(2 * w)
		copy(out, v)
		for i := w; i < 2*w; i++ {
			out[i] = f
		}
		return out
	}
	prod := e.multiplier(ext(q), ext(b))
	sum := e.adder(prod, ext(r), f)
	okDiv := e.unsignedLess(r, b) // r < b (also forces b != 0)
	for i := 0; i < 2*w; i++ {
		var ai sat.Lit = f
		if i < w {
			ai = a[i]
		}
		okDiv = e.mkAnd(okDiv, e.mkEqLit(sum[i], ai))
	}
	// b == 0 case: q = 0, r = a.
	okZero := litTrue(e)
	for i := 0; i < w; i++ {
		okZero = e.mkAnd(okZero, -q[i])
		okZero = e.mkAnd(okZero, e.mkEqLit(r[i], a[i]))
	}
	e.emit(e.mkITE(bz, okZero, okDiv))
	return q, r, nil
}

// shifter builds a logarithmic barrel shifter. eBPF semantics take the
// shift amount modulo the width, so only log2(w) bits of b participate.
func (e *Encoder) shifter(op expr.Op, a, b []sat.Lit) []sat.Lit {
	w := len(a)
	stages := 0
	for 1<<uint(stages) < w {
		stages++
	}
	cur := a
	for s := 0; s < stages; s++ {
		amt := 1 << uint(s)
		next := e.vec(w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch op {
			case expr.OpShl:
				if i >= amt {
					shifted = cur[i-amt]
				} else {
					shifted = litFalse(e)
				}
			case expr.OpLshr:
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = litFalse(e)
				}
			default: // OpAshr
				if i+amt < w {
					shifted = cur[i+amt]
				} else {
					shifted = cur[w-1]
				}
			}
			next[i] = e.mkITE(b[s], shifted, cur[i])
		}
		cur = next
	}
	return cur
}

// ---- boolean encodings ----

func (e *Encoder) encodeBool(n *expr.Expr) (sat.Lit, error) {
	if l := e.lit[n.ID()]; l != 0 {
		return l, nil
	}
	var out sat.Lit
	switch n.Op {
	case expr.OpConst:
		out = e.constLit(n.K == 1)
	case expr.OpVar:
		id := uint32(n.K)
		if in, ok := e.inputs[id]; ok {
			out = in[0]
		} else {
			out = e.newVar()
			v := e.vec(1)
			v[0] = out
			e.inputs[id] = v
		}
	case expr.OpBoolNot:
		a, err := e.encodeBool(n.Args[0])
		if err != nil {
			return 0, err
		}
		out = -a
	case expr.OpBoolAnd, expr.OpBoolOr, expr.OpImplies:
		a, err := e.encodeBool(n.Args[0])
		if err != nil {
			return 0, err
		}
		b, err := e.encodeBool(n.Args[1])
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case expr.OpBoolAnd:
			out = e.mkAnd(a, b)
		case expr.OpBoolOr:
			out = e.mkOr(a, b)
		default:
			out = e.mkOr(-a, b)
		}
	case expr.OpEq:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return 0, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return 0, err
		}
		out = litTrue(e)
		for i := range a {
			out = e.mkAnd(out, e.mkEqLit(a[i], b[i]))
		}
	case expr.OpUlt, expr.OpUle, expr.OpSlt, expr.OpSle:
		a, err := e.encodeBV(n.Args[0])
		if err != nil {
			return 0, err
		}
		b, err := e.encodeBV(n.Args[1])
		if err != nil {
			return 0, err
		}
		if n.Op == expr.OpSlt || n.Op == expr.OpSle {
			// Flip sign bits to reduce signed to unsigned comparison.
			a = append(e.vec(len(a))[:0], a...)
			b = append(e.vec(len(b))[:0], b...)
			a[len(a)-1] = -a[len(a)-1]
			b[len(b)-1] = -b[len(b)-1]
		}
		if n.Op == expr.OpUle || n.Op == expr.OpSle {
			// a <= b  ⟺  !(b < a)
			out = -e.unsignedLess(b, a)
		} else {
			out = e.unsignedLess(a, b)
		}
	default:
		return 0, fmt.Errorf("bitblast: unexpected boolean op %s", n.Op)
	}
	e.lit[n.ID()] = out
	return out, nil
}

// unsignedLess builds the a < b comparator from MSB down.
func (e *Encoder) unsignedLess(a, b []sat.Lit) sat.Lit {
	lt := litFalse(e)
	eq := litTrue(e)
	for i := len(a) - 1; i >= 0; i-- {
		bitLT := e.mkAnd(-a[i], b[i])
		lt = e.mkOr(lt, e.mkAnd(eq, bitLT))
		eq = e.mkAnd(eq, e.mkEqLit(a[i], b[i]))
	}
	return lt
}

// EvalModel extracts the value of an expression variable from a SAT model.
func (c *CNF) EvalModel(model []bool, varID uint32) uint64 {
	bits, ok := c.Inputs[varID]
	if !ok {
		return 0
	}
	var v uint64
	for i, l := range bits {
		val := model[l.Var()]
		if l < 0 {
			val = !val
		}
		if val {
			v |= 1 << uint(i)
		}
	}
	return v
}
