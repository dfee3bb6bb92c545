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

// pool encodes expressions with structural deduplication.
type pool struct {
	w     writer
	index map[uint64][]poolEntry // structural hash -> entries
	count int
}

type poolEntry struct {
	node *expr.Expr
	off  uint32 // word offset of the node header within the pool
}

func newPool() *pool {
	return &pool{index: map[uint64][]poolEntry{}}
}

// nodeHeader packs op, width, aux and arg count into one word.
func nodeHeader(e *expr.Expr) uint32 {
	return uint32(e.Op) | uint32(e.Width)<<8 | uint32(e.Aux)<<16 | uint32(len(e.Args))<<24
}

// put encodes a node (and transitively its children), returning its word
// offset within the pool. expr's typing rule gives a node at most two
// arguments, within the decoder's maxNodeArgs.
func (p *pool) put(e *expr.Expr) uint32 {
	for _, ent := range p.index[e.Hash()] {
		if expr.Equal(ent.node, e) {
			return ent.off
		}
	}
	// Children first so references always point backward.
	var offs [maxNodeArgs]uint32
	argOffs := offs[:len(e.Args)]
	for i, a := range e.Args {
		argOffs[i] = p.put(a)
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
	p.index[e.Hash()] = append(p.index[e.Hash()], poolEntry{node: e, off: off})
	p.count++
	return off
}

// poolReader decodes an expression pool.
type poolReader struct {
	words []uint32
	nodes []*expr.Expr // by word offset: the node decoded there, or nil
}

func newPoolReader(words []uint32) *poolReader {
	return &poolReader{words: words, nodes: make([]*expr.Expr, len(words))}
}

// node decodes the node at the given word offset, with cycle and bounds
// protection (references must point strictly backward).
func (pr *poolReader) node(off uint32) (*expr.Expr, error) {
	if int(off) >= len(pr.words) {
		return nil, fmt.Errorf("bcfenc: node offset %d out of range", off)
	}
	if e := pr.nodes[off]; e != nil {
		return e, nil
	}
	h := pr.words[off]
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
		if int(cur)+2 > len(pr.words) {
			return nil, fmt.Errorf("bcfenc: truncated const")
		}
		k = uint64(pr.words[cur]) | uint64(pr.words[cur+1])<<32
		cur += 2
	case expr.OpVar:
		if int(cur)+1 > len(pr.words) {
			return nil, fmt.Errorf("bcfenc: truncated var")
		}
		k = uint64(pr.words[cur])
		cur++
	}
	args := make([]*expr.Expr, 0, nargs)
	for i := 0; i < nargs; i++ {
		if int(cur) >= len(pr.words) {
			return nil, fmt.Errorf("bcfenc: truncated args")
		}
		ref := pr.words[cur]
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
		// A leaf keeps only its width and payload, as expr.Const and
		// expr.Var build it: the header's aux and argument words are
		// ignored, and a constant is masked to its width.
		aux, args = 0, nil
		if op == expr.OpConst {
			k &= expr.Mask(width)
		}
	}
	// The children are decoded and checked already, so this one rule
	// application per node keeps decoding linear in the pool.
	e, err := expr.Rebuild(op, width, aux, k, args)
	if err != nil {
		return nil, fmt.Errorf("bcfenc: node at %d: %w", off, err)
	}
	pr.nodes[off] = e
	return e, nil
}

// ---- condition messages ----

// Condition is the kernel→user message: the refinement condition to be
// proven, plus bookkeeping that ties the proof back to the request.
type Condition struct {
	Cond *expr.Expr
}

// EncodeCondition serializes a refinement condition. The term is
// written as given: its nodes were type-checked when they were built.
func EncodeCondition(c *Condition) ([]byte, error) {
	if c.Cond == nil || c.Cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition must be a boolean term")
	}
	p := newPool()
	root := p.put(c.Cond)
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
	words, err := readWords(r, int(poolLen))
	if err != nil {
		return nil, err
	}
	pr := newPoolReader(words)
	cond, err := pr.node(root)
	if err != nil {
		return nil, err
	}
	if cond.Width != 1 {
		return nil, fmt.Errorf("bcfenc: condition root is not boolean")
	}
	return &Condition{Cond: cond}, nil
}

func readWords(r *reader, n int) ([]uint32, error) {
	words := make([]uint32, n)
	for i := range words {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		words[i] = v
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("bcfenc: trailing bytes")
	}
	return words, nil
}

// ---- proof messages ----

// step flag layout: rule (16 bits) | nprems (8) | nargs (4) | extras (4).
const (
	stepExtraPivot  = 1
	stepExtraClause = 2
)

// EncodeProof serializes a proof. A first pass puts every argument in
// the pool and counts the message's words; a second writes the message
// into a buffer of exactly that size.
func EncodeProof(p *proof.Proof) ([]byte, error) {
	pool := newPool()
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
			argOffs = append(argOffs, pool.put(a))
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

// DecodeProof parses a proof message.
func DecodeProof(buf []byte) (*proof.Proof, error) {
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
	words := make([]uint32, poolLen)
	for i := range words {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		words[i] = v
	}
	pr := newPoolReader(words)
	// Each step takes at least one of the remaining words and each
	// premise one more, so they bound the step count and the one array
	// every step's premises are cut from.
	rest := (len(buf) - r.off) / 4
	prems := make([]uint32, 0, rest)
	out := &proof.Proof{Steps: make([]proof.Step, 0, min(int(nSteps), rest))}
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
			s.Args = append(s.Args, a)
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
