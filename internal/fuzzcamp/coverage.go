// Package fuzzcamp is the coverage-guided soundness campaign: a
// feedback-driven mutation fuzzer over the three differential oracles of
// internal/difftest (domain soundness, accept-implies-safe, checker
// adversary).
//
// The feedback signal is a compact decision-coverage bitmap collected
// through the verifier.Observer hook: every analyzed (prev-pc, pc) edge
// and every (pc, register, abstraction-shape) triple sets one bit, so an
// input is "interesting" exactly when it drives the verifier through a
// branch decision or a domain shape no earlier input reached. A mutator
// perturbs difftest generator outputs (constant/offset nudges,
// branch-condition flips, instruction splicing, block duplication —
// always emitting Validate-clean programs), and a corpus manager keeps
// coverage-growing inputs, auto-minimizes failures with the difftest
// delta debugger, deduplicates them by oracle + minimized-program hash
// and formats reproducers for promotion into internal/corpus/regressions.
//
// A campaign runs in deterministic rounds: every work item of a round is
// derived only from (campaign seed, round, item index) and the corpus
// state at the round boundary, and results are merged in item order
// behind a barrier. The campaign outcome is therefore identical at any
// worker-pool size (Campaign.Run).
package fuzzcamp

import (
	"fmt"
	"math/bits"

	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// BitmapBits is the size of the decision-coverage signal. 32 Ki bits
// (4 KiB) comfortably holds the edge and domain-shape populations of the
// generator's program family while keeping per-item results cheap to
// merge and persist.
const BitmapBits = 1 << 15

const bitmapWords = BitmapBits / 64

// Bitmap is a fixed-size coverage bitmap. The zero value is empty.
type Bitmap [bitmapWords]uint64

// Set sets the bit h (mod BitmapBits) and reports whether it was clear.
func (b *Bitmap) Set(h uint64) bool {
	h %= BitmapBits
	w, m := h/64, uint64(1)<<(h%64)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or merges o into b and returns how many bits were newly set.
func (b *Bitmap) Or(o *Bitmap) int {
	gained := 0
	for i, w := range o {
		gained += bits.OnesCount64(w &^ b[i])
		b[i] |= w
	}
	return gained
}

// HasNew reports whether b holds any bit not already set in global.
func (b *Bitmap) HasNew(global *Bitmap) bool {
	for i, w := range b {
		if w&^global[i] != 0 {
			return true
		}
	}
	return false
}

// AppendTo serializes the bitmap (little-endian words) onto dst.
func (b *Bitmap) AppendTo(dst []byte) []byte {
	for _, w := range b {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// BitmapWireLen is the serialized bitmap size in bytes.
const BitmapWireLen = bitmapWords * 8

// DecodeBitmap parses a bitmap serialized by AppendTo from the front of
// buf, returning the bytes consumed.
func DecodeBitmap(buf []byte) (*Bitmap, int, error) {
	if len(buf) < BitmapWireLen {
		return nil, 0, fmt.Errorf("fuzzcamp: truncated bitmap (%d of %d bytes)", len(buf), BitmapWireLen)
	}
	var b Bitmap
	for i := range b {
		off := i * 8
		b[i] = uint64(buf[off]) | uint64(buf[off+1])<<8 | uint64(buf[off+2])<<16 | uint64(buf[off+3])<<24 |
			uint64(buf[off+4])<<32 | uint64(buf[off+5])<<40 | uint64(buf[off+6])<<48 | uint64(buf[off+7])<<56
	}
	return &b, BitmapWireLen, nil
}

// CovObserver implements verifier.Observer by folding the verifier's
// branch and domain decisions into a Bitmap. Two bit families:
//
//   - edge bits — hash(prev pc, pc): which instruction followed which on
//     an analysis path, the observer-visible image of branch decisions
//     (the parent token carries the predecessor's pc across forks);
//   - domain bits — hash(pc, reg, shape): the abstraction shape of every
//     live Scalar register on arrival at pc, where the shape buckets a
//     register by constness, unsigned-range width and signedness. A new
//     bucket at a pc means the verifier's domains entered a state they
//     had never held there.
type CovObserver struct {
	bm *Bitmap
}

// NewCovObserver returns an observer accumulating into bm.
func NewCovObserver(bm *Bitmap) *CovObserver { return &CovObserver{bm: bm} }

type covToken struct{ pc int }

// Observe records the coverage bits for one analyzed instruction.
func (o *CovObserver) Observe(parent any, ev verifier.Event) any {
	if ev.Kind != verifier.EventInsn {
		return nil
	}
	pc, st := ev.PC, ev.State
	prev := -1
	if parent != nil {
		prev = parent.(covToken).pc
	}
	o.bm.Set(edgeBit(prev, pc))
	for r := 0; r < ebpf.MaxReg; r++ {
		reg := &st.Regs[r]
		if reg.Type != verifier.Scalar {
			continue
		}
		o.bm.Set(domainBit(pc, r, domainShape(reg)))
	}
	return covToken{pc: pc}
}

// domainShape buckets a scalar abstraction: 0 for constants, otherwise
// the unsigned-range width in bytes (1..8) with bit 4 flagging
// possibly-negative values. Coarse on purpose — the signal must saturate
// slowly enough that growth means a genuinely new verifier decision.
func domainShape(r *verifier.RegState) uint64 {
	if r.IsConst() {
		return 0
	}
	width := bits.Len64(r.UMax - r.UMin) // 1..64
	shape := uint64(1 + (width-1)/8)     // 1..8
	if r.SMin < 0 {
		shape |= 16
	}
	return shape
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash for
// folding decision tuples onto bitmap indices.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func edgeBit(prev, pc int) uint64 {
	return mix64(uint64(int64(prev))<<20 ^ uint64(pc))
}

func domainBit(pc, reg int, shape uint64) uint64 {
	return mix64(0x9e3779b97f4a7c15 ^ uint64(pc)<<16 ^ uint64(reg)<<8 ^ shape)
}
