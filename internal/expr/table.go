package expr

import "errors"

// Table hash-conses the terms of one refinement round. It is an
// open-addressed index over a slab of nodes: a node is added once, after
// its typing rule, its operands are members, and it gets the next ID.
// Equal terms built through one table are therefore the same pointer,
// and the work of building, checking, encoding or bit-blasting a round's
// terms is linear in their distinct nodes. A Table is not safe for
// concurrent use.
type Table struct {
	index []*Expr // power-of-two length, at most 3/4 full; nil = empty
	n     int
	slab  []cell // unused node storage
	// foreign memoizes Intern on compound nodes from outside the table,
	// so interning a shared foreign DAG visits each of its nodes once.
	foreign map[*Expr]*Expr
	vals    []uint64 // ground values by ID (GroundValue)
	mark    []uint32 // per-ID stamps (Count)
	stamp   uint32
	work    int
}

// cell is one node's storage: the node and its at most two operands.
type cell struct {
	e    Expr
	args [2]*Expr
}

const minChunk = 16

var errNilOperand = errors.New("expr: nil operand")

// NewTable returns an empty table with room for the given number of
// nodes before it allocates again.
func NewTable(nodes int) *Table {
	size := 16
	for 3*size < 4*nodes {
		size *= 2
	}
	t := &Table{index: make([]*Expr, size)}
	if nodes > 0 {
		t.slab = make([]cell, nodes)
	}
	return t
}

// Len returns the number of members.
func (t *Table) Len() int { return t.n }

// Work returns the node operations the table has performed: one per
// construction or interned node (found or added), per ground value
// computed and per node Count visited.
func (t *Table) Work() int { return t.work }

// Intern returns the member of t equal to e, adding what t lacks. Every
// node of e from outside t is checked by the typing rule as it enters,
// so a term holding a struct literal that no constructor would build is
// rejected here.
func (t *Table) Intern(e *Expr) (*Expr, error) {
	if e == nil {
		return nil, errNilOperand
	}
	if e.tab == t {
		return e, nil
	}
	if m := t.foreign[e]; m != nil {
		return m, nil
	}
	m, err := t.node(e.Op, e.Width, e.Aux, e.K, e.Args...)
	if err != nil {
		return nil, err
	}
	if len(e.Args) > 0 {
		if t.foreign == nil {
			t.foreign = map[*Expr]*Expr{}
		}
		t.foreign[e] = m
	}
	return m, nil
}

// node returns the member with the given parts after applying the
// typing rule; operands from outside t are interned first.
func (t *Table) node(op Op, width uint8, aux uint8, k uint64, args ...*Expr) (*Expr, error) {
	for _, a := range args {
		if a == nil {
			return nil, errNilOperand
		}
	}
	c := Expr{Op: op, Width: width, Aux: aux, K: k, Args: args}
	if err := c.typecheck(); err != nil {
		return nil, err
	}
	var own [2]*Expr
	for i, a := range args {
		m, err := t.Intern(a)
		if err != nil {
			return nil, err
		}
		own[i] = m
	}
	c.Args = own[:len(args)]
	return t.insert(&c), nil
}

// insert returns the member equal to c, whose operands are members,
// adding a copy of c when there is none.
func (t *Table) insert(c *Expr) *Expr {
	t.work++
	if 4*(t.n+1) > 3*len(t.index) {
		t.rehash()
	}
	mask := uint64(len(t.index) - 1)
	i := hashNode(c) & mask
	for ; t.index[i] != nil; i = (i + 1) & mask {
		if e := t.index[i]; e.Op == c.Op && e.Width == c.Width && e.Aux == c.Aux &&
			e.K == c.K && sameArgs(e.Args, c.Args) {
			return e
		}
	}
	if len(t.slab) == 0 {
		t.slab = make([]cell, max(minChunk, t.n))
	}
	cl := &t.slab[0]
	t.slab = t.slab[1:]
	cl.e = Expr{Op: c.Op, Width: c.Width, Aux: c.Aux, K: c.K,
		flags: groundFlag(c.Op, c.Args), id: uint32(t.n), tab: t}
	if n := copy(cl.args[:], c.Args); n > 0 {
		cl.e.Args = cl.args[:n:n]
	}
	t.index[i] = &cl.e
	t.n++
	return &cl.e
}

func sameArgs(a, b []*Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rehash doubles the index.
func (t *Table) rehash() {
	old := t.index
	t.index = make([]*Expr, 2*len(old))
	mask := uint64(len(t.index) - 1)
	for _, e := range old {
		if e == nil {
			continue
		}
		i := hashNode(e) & mask
		for t.index[i] != nil {
			i = (i + 1) & mask
		}
		t.index[i] = e
	}
}

// hashNode hashes a node's parts; its operands are members, so their
// IDs stand for their structure.
func hashNode(e *Expr) uint64 {
	h := e.K*0x9e3779b97f4a7c15 ^ (uint64(e.Op)|uint64(e.Width)<<8|uint64(e.Aux)<<16)<<40
	for _, a := range e.Args {
		h = (h ^ uint64(a.id)) * 0xff51afd7ed558ccd
	}
	return h ^ h>>32
}

// Count returns the number of distinct nodes of the terms es together,
// or a number above limit once it has seen more than limit of them. A
// term is counted as its member of t; one t cannot intern is skipped.
func (t *Table) Count(limit int, es ...*Expr) int {
	n := 0
	t.stamp++
	for _, e := range es {
		if m, err := t.Intern(e); err == nil {
			if len(t.mark) < t.n { // keeping the stamps already set
				t.mark = append(t.mark, make([]uint32, t.n-len(t.mark))...)
			}
			t.count(m, limit, &n)
		}
	}
	return n
}

func (t *Table) count(e *Expr, limit int, n *int) {
	if *n > limit || t.mark[e.id] == t.stamp {
		return
	}
	t.mark[e.id] = t.stamp
	*n++
	t.work++
	for _, a := range e.Args {
		t.count(a, limit, n)
	}
}
