package proof

import (
	"testing"

	"bcf/internal/expr"
)

// FuzzCheckProof is the proof-mutation fuzzer promised by DESIGN.md's
// safety argument. The oracle is soundness itself: the target condition
// (x ≤ 5 for an unconstrained 64-bit x) is falsifiable, so NO derivation
// may check against it. Any accepted proof is a forged certificate — the
// exact attack §4's "no forged proofs" property rules out.
func FuzzCheckProof(f *testing.F) {
	x := expr.Var(0, 64)
	cond := expr.Ule(x, expr.Const(5, 64))

	// Structured seeds: plausible step streams for the generator below.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})                           // lone assume
	f.Add([]byte{1, 0, 0, 9, 2, 0, 0, 0})            // assume + contradiction
	f.Add([]byte{1, 0, 0, 22, 0, 1, 0, 0})           // assume + eval_const
	f.Add([]byte{60, 1, 0, 2, 0, 61, 2, 0, 1, 0, 7}) // bb_clause + resolve
	for r := byte(1); r < 64; r += 3 {
		f.Add([]byte{1, 0, 0, r, 1, 0, 1, 0, 0, r + 1, 2, 0, 1, 2, 3})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := proofFromBytes(data, cond)
		if p == nil {
			return
		}
		if err := CheckWithLimits(cond, p, DefaultLimits); err == nil {
			t.Fatalf("checker accepted a proof of a falsifiable condition: %d steps", len(p.Steps))
		}
	})
}

// proofFromBytes interprets fuzz data as a proof: per step one rule byte,
// one premise-count byte, premise index bytes, one arg-count byte, arg
// selector bytes and one extra byte (pivot / clause index). Args come
// from a pool of terms related to cond, so rules see both plausible and
// nonsensical operands; premise indices are taken raw to also exercise
// the checker's bounds handling.
func proofFromBytes(data []byte, cond *expr.Expr) *Proof {
	pool := []*expr.Expr{
		cond,
		expr.BoolNot(cond),
		cond.Args[0],
		cond.Args[1],
		expr.Const(0, 64),
		expr.Const(5, 64),
		expr.Const(0, 8),
		expr.Ule(expr.Const(0, 8), expr.Const(0, 8)),
		expr.BoolAnd(cond, cond),
		expr.Eq(cond.Args[0], expr.Const(5, 64)),
	}
	var p Proof
	i := 0
	next := func() (byte, bool) {
		if i >= len(data) {
			return 0, false
		}
		b := data[i]
		i++
		return b, true
	}
	for len(p.Steps) < 64 {
		rb, ok := next()
		if !ok {
			break
		}
		s := Step{Rule: RuleID(rb) % NumRules}
		np, ok := next()
		if !ok {
			break
		}
		for j := 0; j < int(np%4); j++ {
			pb, ok := next()
			if !ok {
				return &p
			}
			s.Premises = append(s.Premises, uint32(pb))
		}
		na, ok := next()
		if !ok {
			break
		}
		for j := 0; j < int(na%3); j++ {
			ab, ok := next()
			if !ok {
				return &p
			}
			s.Args = append(s.Args, pool[int(ab)%len(pool)])
		}
		if eb, ok := next(); ok {
			s.Pivot = int32(int8(eb))
			s.ClauseIdx = int32(eb)
		}
		p.Steps = append(p.Steps, s)
	}
	if len(p.Steps) == 0 {
		return nil
	}
	return &p
}
