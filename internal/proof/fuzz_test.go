package proof

import (
	"slices"
	"testing"

	"bcf/internal/expr"
)

// FuzzCheckProof is the proof-mutation fuzzer promised by DESIGN.md's
// safety argument. The oracle is soundness itself: the target condition
// (x ≤ 5 for an unconstrained 64-bit x) is falsifiable, so NO derivation
// may check against it. Any accepted proof is a forged certificate — the
// exact attack §4's "no forged proofs" property rules out. The checker's
// work per byte of the proof's encoding must also stay under
// MaxWorkPerProofByte, with 40-level shared DAGs among the arguments.
func FuzzCheckProof(f *testing.F) {
	// Structured seeds: plausible step streams for the generator below.
	f.Add([]byte{})
	last := len(checkProofSeeds) - 1
	for _, s := range checkProofSeeds[:last] {
		f.Add(s.data)
	}
	for r := byte(1); r < 64; r += 3 {
		f.Add([]byte{1, 0, 0, r, 1, 0, 1, 0, 0, r + 1, 2, 0, 1, 2, 3})
	}
	f.Add(checkProofSeeds[last].data)

	f.Fuzz(func(t *testing.T, data []byte) {
		cond := fuzzCond()
		p := proofFromBytes(data, cond)
		if p == nil {
			return
		}
		work, err := check(cond, p, defaultLimits)
		if err == nil {
			t.Fatalf("checker accepted a proof of a falsifiable condition: %d steps", len(p.Steps))
		}
		if r := float64(work) / float64(wireBytes(p)); r > MaxWorkPerProofByte {
			t.Fatalf("%d work units for a %d-B proof: %.2f per byte", work, wireBytes(p), r)
		}
	})
}

// fuzzCond builds FuzzCheckProof's target condition, x ≤ 5, in a new
// table: the check extends it, so each input gets its own.
func fuzzCond() *expr.Expr {
	tab := expr.NewTable(0)
	return tab.Ule(tab.Var(0, 64), tab.Const(5, 64))
}

// checkProofSeeds are FuzzCheckProof's named seeds, each with the rules
// proofFromBytes decodes it to. The last is added after the generated
// seeds, the others before them.
var checkProofSeeds = []struct {
	name  string
	data  []byte
	rules []RuleID
}{
	{"lone assume", []byte{byte(RuleAssume), 0, 0}, []RuleID{RuleAssume}},
	{"assume + contradiction", []byte{
		byte(RuleAssume), 0, 0, 0,
		byte(RuleContradiction), 2, 0, 0, 0, 0,
	}, []RuleID{RuleAssume, RuleContradiction}},
	{"assume + eval_const", []byte{
		byte(RuleAssume), 0, 0, 0,
		byte(RuleEvalConst), 0, 1, 11, 0, // the pool's ground DAG
	}, []RuleID{RuleAssume, RuleEvalConst}},
	{"bb_clause + resolve", []byte{
		byte(RuleBitblastClause), 1, 0, 0, 2, // clause 2
		byte(RuleResolve), 2, 0, 1, 0, 7, // pivot 7
	}, []RuleID{RuleBitblastClause, RuleResolve}},
	{"assume + a step with reserved id 6", []byte{
		byte(RuleAssume), 0, 0, 0,
		6, 1, 0, 0, 0,
	}, []RuleID{RuleAssume, 6}},
}

// TestCheckProofSeeds: each named seed decodes to the rules its name
// gives.
func TestCheckProofSeeds(t *testing.T) {
	cond := fuzzCond()
	for _, s := range checkProofSeeds {
		var got []RuleID
		if p := proofFromBytes(s.data, cond); p != nil {
			for _, st := range p.Steps {
				got = append(got, st.Rule)
			}
		}
		if !slices.Equal(got, s.rules) {
			t.Errorf("%s: decodes to %v, want %v", s.name, got, s.rules)
		}
	}
}

// proofFromBytes interprets fuzz data as a proof: per step one rule byte,
// one premise-count byte, premise index bytes, one arg-count byte, arg
// selector bytes and one extra byte (pivot / clause index). Args come
// from a pool of terms related to cond, so rules see both plausible and
// nonsensical operands; premise indices are taken raw to also exercise
// the checker's bounds handling. The pool is built in a table apart from
// cond's, so the checker interns what the steps use.
func proofFromBytes(data []byte, cond *expr.Expr) *Proof {
	tab := expr.NewTable(0)
	// A variable and a ground term doubled 40 times: 2^40 leaves as
	// trees, 41 nodes as DAGs.
	deep, ground := cond.Args[0], tab.Const(1, 64)
	for i := 0; i < 40; i++ {
		deep, ground = tab.Add(deep, deep), tab.Add(ground, ground)
	}
	pool := []*expr.Expr{
		cond,
		tab.BoolNot(cond),
		cond.Args[0],
		cond.Args[1],
		tab.Const(0, 64),
		tab.Const(5, 64),
		tab.Const(0, 8),
		tab.Ule(tab.Const(0, 8), tab.Const(0, 8)),
		tab.BoolAnd(cond, cond),
		tab.Eq(cond.Args[0], tab.Const(5, 64)),
		deep,
		ground,
		tab.Ule(deep, ground),
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

// wireBytes is the size of p's bcfenc encoding: a four-word header, each
// distinct argument node once in the pool (a header word, a constant's
// two payload words or a variable's one, and one word per operand), and
// per step a head word, a word per premise and argument, and the extra
// word of a resolve or bb_clause step.
func wireBytes(p *Proof) int {
	words := 4
	seen := map[*expr.Expr]bool{}
	tab := expr.NewTable(0)
	var put func(e *expr.Expr)
	put = func(e *expr.Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		words += 1 + len(e.Args)
		switch e.Op {
		case expr.OpConst:
			words += 2
		case expr.OpVar:
			words++
		}
		for _, a := range e.Args {
			put(a)
		}
	}
	for _, s := range p.Steps {
		words += 1 + len(s.Premises) + len(s.Args)
		if s.Rule == RuleResolve || s.Rule == RuleBitblastClause {
			words++
		}
		for _, a := range s.Args {
			m, err := tab.Intern(a)
			if err != nil {
				panic(err)
			}
			put(m)
		}
	}
	return 4 * words
}
