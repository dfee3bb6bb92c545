package verifier

// A digest over the scalar transfer functions. Seeded edge-heavy
// abstract states go through every ALU op and every conditional jump at
// both widths, and every resulting state is hashed, so any change to
// the precision of aluScalar, isBranchTaken, regSetMinMax or zext32 —
// tighter or looser — changes the digest.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// edgeBases are the sign and width boundaries of the interval domains
// and the shift-width limits; edgeValue draws within a few units of them
// (0 minus a few is just under 2^64).
var edgeBases = [...]uint64{0, 32, 64, 1 << 31, 1 << 32, 1 << 63}

// edgeValue draws a value near a domain boundary, either of the whole
// register or of the low word under an arbitrary high word, or (one
// time in four) uniformly.
func edgeValue(rng *rand.Rand) uint64 {
	near := edgeBases[rng.Intn(len(edgeBases))] + uint64(rng.Intn(9)) - 4
	switch rng.Intn(4) {
	case 0:
		return rng.Uint64()
	case 1:
		return uint64(rng.Uint32())<<32 | uint64(uint32(near))
	}
	return near
}

// edgeSpan draws a non-negative distance with a uniformly drawn bit
// length, so both tiny and huge intervals are common.
func edgeSpan(rng *rand.Rand) uint64 { return rng.Uint64() >> uint(rng.Intn(65)) }

// edgeScalar draws a sound abstract scalar around an edge value: a
// constant, no knowledge, or any mix of u64, s64, u32 and s32 intervals
// and random tnum bits, each containing the value, then synced. It
// returns the state and a concrete member sampled from it: the value it
// was built around or, when they are members, one of its bounds or a
// random tnum member.
func edgeScalar(rng *rand.Rand) (RegState, uint64) {
	v := edgeValue(rng)
	if rng.Intn(8) == 0 {
		return constScalar(v), v
	}
	r := unknownScalar()
	kinds := rng.Intn(32)
	if kinds&1 != 0 {
		r.UMin, r.UMax = v-min(v, edgeSpan(rng)), v+min(^v, edgeSpan(rng))
	}
	if kinds&2 != 0 {
		s := int64(v)
		lo, hi := s-int64(edgeSpan(rng)>>1), s+int64(edgeSpan(rng)>>1)
		r.SMin, r.SMax = min(lo, s), max(hi, s) // a wrapped end stays at s
	}
	if kinds&4 != 0 {
		w := uint32(v)
		r.U32Min, r.U32Max = w-min(w, uint32(edgeSpan(rng))), w+min(^w, uint32(edgeSpan(rng)))
	}
	if kinds&8 != 0 {
		s := int32(uint32(v))
		lo, hi := s-int32(uint32(edgeSpan(rng))>>1), s+int32(uint32(edgeSpan(rng))>>1)
		r.S32Min, r.S32Max = min(lo, s), max(hi, s)
	}
	if kinds&16 != 0 {
		mask := rng.Uint64() & rng.Uint64()
		if rng.Intn(2) == 0 {
			mask |= rng.Uint64()
		}
		r.Var = tnum.Tnum{Value: v &^ mask, Mask: mask}
	}
	r.sync()
	return r, sampleMember(rng, &r, v)
}

// sampleMember returns one of r's bounds or a random member of its tnum
// when that is a member of r, and v (a known member) otherwise.
func sampleMember(rng *rand.Rand, r *RegState, v uint64) uint64 {
	candidates := [...]uint64{
		v, r.UMin, r.UMax, uint64(r.SMin), uint64(r.SMax),
		r.Var.Min(), r.Var.Max(), r.Var.Value | rng.Uint64()&r.Var.Mask,
	}
	if m := candidates[rng.Intn(len(candidates))]; r.contains(m) {
		return m
	}
	return v
}

// edgeEnds start the two-value ranges edgePair places at the ends of
// the interval domains.
var edgeEnds = [...]uint64{0, 1<<31 - 2, 1 << 31, 1<<32 - 2, 1<<63 - 2, 1 << 63, 1<<64 - 2}

// edgePair draws a dst and a src from edgeScalar, each with a member.
// One time in sixteen src is a copy of dst (with a member of its own),
// and one time in sixteen a constant at or next to one of dst's eight
// bounds, where branch refinements nudge endpoints; half of those times
// dst is a two-value range at the end of a domain, where a nudge could
// wrap.
func edgePair(rng *rand.Rand) (dst RegState, dv uint64, src RegState, sv uint64) {
	dst, dv = edgeScalar(rng)
	src, sv = edgeScalar(rng)
	switch rng.Intn(16) {
	case 0:
		src, sv = dst, sampleMember(rng, &dst, dv)
	case 1:
		if rng.Intn(2) == 0 {
			e := edgeEnds[rng.Intn(len(edgeEnds))]
			dst = unknownScalar()
			dst.UMin, dst.UMax = e, e+1
			dst.sync()
			dv = e + uint64(rng.Intn(2))
		}
		bounds := [...]uint64{
			dst.UMin, dst.UMax, uint64(dst.SMin), uint64(dst.SMax),
			uint64(dst.U32Min), uint64(dst.U32Max), uint64(dst.S32Min), uint64(dst.S32Max),
		}
		sv = bounds[rng.Intn(len(bounds))] + uint64(rng.Intn(3)) - 1
		src = constScalar(sv)
	}
	return dst, dv, src, sv
}

// transferJmpOps are the conditional jump operations regSetMinMax and
// isBranchTaken reason about.
var transferJmpOps = []uint8{
	ebpf.JmpJEQ, ebpf.JmpJNE, ebpf.JmpJGT, ebpf.JmpJGE, ebpf.JmpJLT,
	ebpf.JmpJLE, ebpf.JmpJSGT, ebpf.JmpJSGE, ebpf.JmpJSLT, ebpf.JmpJSLE,
	ebpf.JmpJSET,
}

// hashReg writes every field of r to h.
func hashReg(h hash.Hash, r *RegState) {
	var b [80]byte
	le := binary.LittleEndian
	b[0] = byte(r.Type)
	le.PutUint32(b[4:], uint32(r.Off))
	le.PutUint32(b[8:], uint32(r.MapIdx))
	le.PutUint32(b[12:], r.ID)
	le.PutUint64(b[16:], r.Var.Value)
	le.PutUint64(b[24:], r.Var.Mask)
	le.PutUint64(b[32:], r.UMin)
	le.PutUint64(b[40:], r.UMax)
	le.PutUint64(b[48:], uint64(r.SMin))
	le.PutUint64(b[56:], uint64(r.SMax))
	le.PutUint32(b[64:], r.U32Min)
	le.PutUint32(b[68:], r.U32Max)
	le.PutUint32(b[72:], uint32(r.S32Min))
	le.PutUint32(b[76:], uint32(r.S32Max))
	h.Write(b[:])
}

// transferDigest hashes the results of n seeded cases. Each case draws
// an edgePair and runs it through aluScalar (every op, both widths),
// isBranchTaken and regSetMinMax (every jump op, both widths, both
// outcomes on copies), and zext32 of dst.
func transferDigest(n int) string {
	rng := rand.New(rand.NewSource(2025))
	h := sha256.New()
	for i := 0; i < n; i++ {
		dst, _, src, _ := edgePair(rng)
		for _, is32 := range []bool{false, true} {
			for _, op := range propOps {
				d, s := dst, src
				aluScalar(&d, &s, op, is32)
				hashReg(h, &d)
			}
			for _, op := range transferJmpOps {
				h.Write([]byte{byte(isBranchTaken(&dst, &src, op, is32))})
				for _, taken := range []bool{true, false} {
					d, s := dst, src
					regSetMinMax(&d, &s, op, taken, is32)
					hashReg(h, &d)
					hashReg(h, &s)
				}
			}
		}
		z := dst
		z.zext32()
		hashReg(h, &z)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScalarTransferDigest pins the precision of the scalar transfer
// functions, branch refinements and bounds sync. The digests were first
// computed before these functions were rewritten over one width-generic
// interval type, and the rewrite reproduced them exactly. The 30000-case
// digest then changed once, with the sign-boundary guard in
// signedFromUnsigned: before it, 32-bit OR and XOR left an empty s32
// range on one case each in this stream, and the stream hashed to
// 10856951c70c64d8e869285dbebcdd922bb8263397d01222fadbace3647a729a.
// Those two results are the only ones the guard changed. It changed again
// when a taken JMP32 JSET began truncating a sign-extended single-bit
// mask to its low word: 426 of the stream's 3,990,000 results moved, all
// of them the destination of a taken JMP32 JSET (33 in the 2000-case
// prefix), and before that the stream hashed to
// 244a300e566959067b5a9d295c02446a08f1a7eebbc7902fc223b110f66c9ad9. A
// -race build checks a shorter prefix of the same stream.
func TestScalarTransferDigest(t *testing.T) {
	n, want := 30000, "7d450a4b8f0efd1140c132fdb8cdcf41f7f5325aa1e43a6e7b899ea3664a4671"
	if RaceEnabled {
		n, want = 2000, "ea566e7bd1d4cfe1dd77ad364972da31a81aec29f27d7f91b7f7d6a1d2e6f03e"
	}
	if got := transferDigest(n); got != want {
		t.Fatalf("transfer digest over %d cases = %s, want %s", n, got, want)
	}
}
