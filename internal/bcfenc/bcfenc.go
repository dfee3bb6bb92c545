// Package bcfenc implements the BCF binary wire format: the compact
// u32-based encoding used to ship refinement conditions to user space and
// proofs back into the kernel (§5 "BCF Format").
//
// Messages are little-endian u32 streams. Expressions live in a pool:
// each node is a header word (op, width, aux, argument count) followed by
// its payload; nested expressions are referenced by the offset of their
// header relative to the pool start, so shared subterms are encoded once.
// Proof steps likewise reference their premises by step index, and — as
// in the paper — conclusions are omitted entirely: the checker recomputes
// them, which keeps proofs small.
package bcfenc

import (
	"encoding/binary"
	"fmt"

	"bcf/internal/expr"
	"bcf/internal/proof"
)

// Message kind magics.
const (
	MagicCondition = 0x42434631 // "BCF1"
	MagicProof     = 0x42434650 // "BCFP"
)

// Version is the wire format version.
const Version = 1

// limits for the decoder (kernel-side hardening).
const (
	maxPoolWords = 1 << 22
	maxSteps     = 1 << 21
	maxNodeArgs  = 4
)

// ---- u32 stream helpers ----

type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *writer) u64(v uint64) {
	w.u32(uint32(v))
	w.u32(uint32(v >> 32))
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("bcfenc: truncated message")
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// words returns the next n words in place.
func (r *reader) words(n int) (words, error) {
	if n > (len(r.buf)-r.off)/4 {
		return nil, fmt.Errorf("bcfenc: truncated message")
	}
	w := words(r.buf[r.off : r.off+4*n])
	r.off += 4 * n
	return w, nil
}

func (r *reader) u64() (uint64, error) {
	lo, err := r.u32()
	if err != nil {
		return 0, err
	}
	hi, err := r.u32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

// ---- expression pool ----

// pool encodes the members of one expr.Table. Members are hash-consed,
// so writing each node once, at the offset kept under its ID, is the
// format's structural deduplication.
type pool struct {
	w    writer
	tab  *expr.Table
	offs []uint32 // by node ID: 1 + the node header's word offset, or 0
}

// nodeHeader packs op, width, aux and arg count into one word.
func nodeHeader(e *expr.Expr) uint32 {
	return uint32(e.Op) | uint32(e.Width)<<8 | uint32(e.Aux)<<16 | uint32(len(e.Args))<<24
}

// put encodes a term (and transitively its children), returning its word
// offset within the pool. A term from outside the pool's table is
// interned into it first, which type-checks its nodes. expr's typing
// rule gives a node at most two arguments, within the decoder's
// maxNodeArgs.
func (p *pool) put(e *expr.Expr) (uint32, error) {
	if p.tab == nil {
		if p.tab = e.Table(); p.tab == nil {
			p.tab = expr.NewTable(0)
		}
	}
	m, err := p.tab.Intern(e)
	if err != nil {
		return 0, fmt.Errorf("bcfenc: %w", err)
	}
	if n := p.tab.Len(); n > len(p.offs) {
		p.offs = append(p.offs, make([]uint32, n-len(p.offs))...)
	}
	return p.write(m), nil
}

// write emits a member, children first so references point backward.
func (p *pool) write(e *expr.Expr) uint32 {
	if off := p.offs[e.ID()]; off != 0 {
		return off - 1
	}
	var offs [maxNodeArgs]uint32
	argOffs := offs[:len(e.Args)]
	for i, a := range e.Args {
		argOffs[i] = p.write(a)
	}
	off := uint32(len(p.w.buf) / 4)
	p.w.u32(nodeHeader(e))
	switch e.Op {
	case expr.OpConst:
		p.w.u64(e.K)
	case expr.OpVar:
		p.w.u32(uint32(e.K))
	}
	for _, ao := range argOffs {
		p.w.u32(ao)
	}
	p.offs[e.ID()] = off + 1
	return off
}

// poolReader decodes an expression pool, read in place from the
// message, into a table.
type poolReader struct {
	words words
	tab   *expr.Table
	nodes []*expr.Expr // by word offset: the node decoded there, or nil
}

// words is a little-endian u32 stream.
type words []byte

func (w words) len() int           { return len(w) / 4 }
func (w words) at(i uint32) uint32 { return binary.LittleEndian.Uint32(w[4*i:]) }

// newPoolReader decodes pool into tab, or into a new table sized for
// the pool when tab is nil.
func newPoolReader(pool words, tab *expr.Table) *poolReader {
	if tab == nil {
		tab = expr.NewTable(min(poolNodes(pool), maxPresized))
	}
	return &poolReader{words: pool, tab: tab, nodes: make([]*expr.Expr, pool.len())}
}

// maxPresized caps the nodes a new table is sized for up front: a larger
// pool's table grows as its nodes are actually decoded.
const maxPresized = 1 << 12

// poolNodes counts the node headers of a pool laid out by the encoder,
// where every node is reachable and so becomes a table member. A
// well-formed node takes at least two words, which bounds the count for
// any other pool.
func poolNodes(pool words) int {
	n := 0
	for i := 0; i < pool.len() && 2*n < pool.len(); n++ {
		h := pool.at(uint32(i))
		i += 1 + int(h>>24)
		switch expr.Op(h & 0xff) {
		case expr.OpConst:
			i += 2
		case expr.OpVar:
			i++
		}
	}
	return n
}

// node decodes the node at the given word offset, with cycle and bounds
// protection (references must point strictly backward).
func (pr *poolReader) node(off uint32) (*expr.Expr, error) {
	if int(off) >= pr.words.len() {
		return nil, fmt.Errorf("bcfenc: node offset %d out of range", off)
	}
	if e := pr.nodes[off]; e != nil {
		return e, nil
	}
	h := pr.words.at(off)
	op := expr.Op(h & 0xff)
	width := uint8(h >> 8)
	aux := uint8(h >> 16)
	nargs := int(h >> 24)
	if nargs > maxNodeArgs {
		return nil, fmt.Errorf("bcfenc: node arity %d too large", nargs)
	}
	cur := off + 1
	var k uint64
	switch op {
	case expr.OpConst:
		if int(cur)+2 > pr.words.len() {
			return nil, fmt.Errorf("bcfenc: truncated const")
		}
		k = uint64(pr.words.at(cur)) | uint64(pr.words.at(cur+1))<<32
		cur += 2
	case expr.OpVar:
		if int(cur)+1 > pr.words.len() {
			return nil, fmt.Errorf("bcfenc: truncated var")
		}
		k = uint64(pr.words.at(cur))
		cur++
	}
	var argBuf [maxNodeArgs]*expr.Expr
	args := argBuf[:0]
	for i := 0; i < nargs; i++ {
		if int(cur) >= pr.words.len() {
			return nil, fmt.Errorf("bcfenc: truncated args")
		}
		ref := pr.words.at(cur)
		cur++
		if ref >= off {
			return nil, fmt.Errorf("bcfenc: forward/self node reference")
		}
		child, err := pr.node(ref)
		if err != nil {
			return nil, err
		}
		args = append(args, child)
	}
	if op == expr.OpConst || op == expr.OpVar {
		// A leaf keeps only its width and payload, as Table.Const and
		// Table.Var build it: the header's aux and argument words are
		// ignored, and a constant is masked to its width.
		aux, args = 0, nil
		if op == expr.OpConst {
			k &= expr.Mask(width)
		}
	}
	// The children are decoded and checked already, so this one rule
	// application per node keeps decoding linear in the pool.
	e, err := pr.tab.Rebuild(op, width, aux, k, args)
	if err != nil {
		return nil, fmt.Errorf("bcfenc: node at %d: %w", off, err)
	}
	pr.nodes[off] = e
	return e, nil
}

// ---- condition messages ----

// Condition is the kernel→user message. Its one field is the refinement
// condition to be proven; the message carries nothing else.
type Condition struct {
	Cond *expr.Expr
}

// EncodeCondition serializes a refinement condition. A condition built
// in an expr.Table is written from that table; any other term is
// interned into a new one first, so an ill-typed struct literal is
// refused rather than written.
func EncodeCondition(c *Condition) ([]byte, error) {
	if c.Cond == nil || c.Cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition must be a boolean term")
	}
	var p pool
	root, err := p.put(c.Cond)
	if err != nil {
		return nil, err
	}
	var w writer
	w.u32(MagicCondition)
	w.u32(Version)
	w.u32(uint32(len(p.w.buf) / 4)) // pool length in words
	w.u32(root)
	w.buf = append(w.buf, p.w.buf...)
	return w.buf, nil
}

// DecodeCondition parses a condition message.
func DecodeCondition(buf []byte) (*Condition, error) {
	r := &reader{buf: buf}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != MagicCondition {
		return nil, fmt.Errorf("bcfenc: bad condition magic %#x", magic)
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bcfenc: unsupported version %d", ver)
	}
	poolLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if poolLen > maxPoolWords {
		return nil, fmt.Errorf("bcfenc: pool too large")
	}
	root, err := r.u32()
	if err != nil {
		return nil, err
	}
	pool, err := r.words(int(poolLen))
	if err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("bcfenc: trailing bytes")
	}
	pr := newPoolReader(pool, nil)
	cond, err := pr.node(root)
	if err != nil {
		return nil, err
	}
	if cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition root is not boolean")
	}
	return &Condition{Cond: cond}, nil
}

// ---- proof messages ----

// step flag layout: rule (16 bits) | nprems (8) | nargs (4) | extras (4).
const (
	stepExtraPivot  = 1
	stepExtraClause = 2
)

// EncodeProof serializes a proof. A first pass puts every argument in
// the pool and counts the message's words; a second writes the message
// into a buffer of exactly that size. The pool is written from the
// table of the first argument; arguments from elsewhere are interned
// into it.
func EncodeProof(p *proof.Proof) ([]byte, error) {
	var pool pool
	var argOffs []uint32
	words := 4 // magic, version, pool length, step count
	for i := range p.Steps {
		s := &p.Steps[i]
		if len(s.Premises) > 255 || len(s.Args) > 15 {
			return nil, fmt.Errorf("bcfenc: step %d too wide", i)
		}
		for _, a := range s.Args {
			if a == nil {
				return nil, fmt.Errorf("bcfenc: step %d: nil arg", i)
			}
			off, err := pool.put(a)
			if err != nil {
				return nil, fmt.Errorf("bcfenc: step %d: %w", i, err)
			}
			argOffs = append(argOffs, off)
		}
		words += 1 + len(s.Premises) + len(s.Args)
		if kind, _ := stepExtra(s); kind != 0 {
			words++
		}
	}
	poolWords := len(pool.w.buf) / 4
	w := writer{buf: make([]byte, 0, 4*(words+poolWords))}
	w.u32(MagicProof)
	w.u32(Version)
	w.u32(uint32(poolWords))
	w.u32(uint32(len(p.Steps)))
	w.buf = append(w.buf, pool.w.buf...)
	for i := range p.Steps {
		s := &p.Steps[i]
		kind, extra := stepExtra(s)
		w.u32(uint32(s.Rule) | uint32(len(s.Premises))<<16 | uint32(len(s.Args))<<24 | kind<<28)
		for _, pm := range s.Premises {
			w.u32(pm)
		}
		for range s.Args {
			w.u32(argOffs[0])
			argOffs = argOffs[1:]
		}
		if kind != 0 {
			w.u32(extra)
		}
	}
	return w.buf, nil
}

// stepExtra returns the kind and value of a step's extra word, or kind 0
// when the step has none.
func stepExtra(s *proof.Step) (kind, extra uint32) {
	switch s.Rule {
	case proof.RuleResolve:
		return stepExtraPivot, uint32(s.Pivot)
	case proof.RuleBitblastClause:
		return stepExtraClause, uint32(s.ClauseIdx)
	}
	return 0, 0
}

// stepCounts returns the premises and arguments the heads of the first
// nSteps steps laid out in ws declare, each at most the words of ws.
func stepCounts(ws words, nSteps uint32) (prems, args int) {
	for i, s := 0, uint32(0); s < nSteps && i < ws.len(); s++ {
		h := ws.at(uint32(i))
		np, na := int(h>>16&0xff), int(h>>24&0xf)
		prems, args = prems+np, args+na
		i += 1 + np + na
		if h>>28 != 0 {
			i++
		}
	}
	return min(prems, ws.len()), min(args, ws.len())
}

// DecodeProof parses a proof message into a new expr.Table.
func DecodeProof(buf []byte) (*proof.Proof, error) {
	return DecodeProofIn(nil, buf)
}

// DecodeProofIn parses a proof message, building its terms in tab (a new
// table when tab is nil). Decoding into the condition's table makes a
// proof term and the condition subterm it names the same node.
func DecodeProofIn(tab *expr.Table, buf []byte) (*proof.Proof, error) {
	r := &reader{buf: buf}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != MagicProof {
		return nil, fmt.Errorf("bcfenc: bad proof magic %#x", magic)
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bcfenc: unsupported version %d", ver)
	}
	poolLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	nSteps, err := r.u32()
	if err != nil {
		return nil, err
	}
	if poolLen > maxPoolWords || nSteps > maxSteps {
		return nil, fmt.Errorf("bcfenc: message too large")
	}
	pool, err := r.words(int(poolLen))
	if err != nil {
		return nil, err
	}
	pr := newPoolReader(pool, tab)
	// Every step's premises and arguments are cut from one array each,
	// sized from the step heads; each step takes at least one of the
	// remaining words, which bounds the step count.
	rest := words(buf[r.off:])
	nPrems, nArgs := stepCounts(rest, nSteps)
	prems := make([]uint32, 0, nPrems)
	args := make([]*expr.Expr, 0, nArgs)
	out := &proof.Proof{Steps: make([]proof.Step, 0, min(int(nSteps), rest.len()))}
	for i := uint32(0); i < nSteps; i++ {
		head, err := r.u32()
		if err != nil {
			return nil, err
		}
		rule := proof.RuleID(head & 0xffff)
		nprems := int(head >> 16 & 0xff)
		nargs := int(head >> 24 & 0xf)
		extras := head >> 28
		s := proof.Step{Rule: rule}
		for j := 0; j < nprems; j++ {
			pm, err := r.u32()
			if err != nil {
				return nil, err
			}
			prems = append(prems, pm)
		}
		if nprems > 0 {
			s.Premises = prems[len(prems)-nprems : len(prems) : len(prems)]
		}
		for j := 0; j < nargs; j++ {
			ao, err := r.u32()
			if err != nil {
				return nil, err
			}
			a, err := pr.node(ao)
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		if nargs > 0 {
			s.Args = args[len(args)-nargs : len(args) : len(args)]
		}
		if extras != 0 {
			ex, err := r.u32()
			if err != nil {
				return nil, err
			}
			switch extras {
			case stepExtraPivot:
				s.Pivot = int32(ex)
			case stepExtraClause:
				s.ClauseIdx = int32(ex)
			default:
				return nil, fmt.Errorf("bcfenc: step %d: unknown extra kind", i)
			}
		}
		out.Steps = append(out.Steps, s)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("bcfenc: trailing bytes")
	}
	return out, nil
}
