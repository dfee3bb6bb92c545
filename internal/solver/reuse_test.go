package solver_test

import (
	"bytes"
	"maps"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
	"bcf/internal/solver"
)

// TestProverReuseAfterAbort: a Prove that the conflict budget cuts off
// mid-search leaves the Prover's solver with bumped activities, saved
// phases, a learned clause and a partial trail. The next Prove on that
// Prover must still answer exactly as a new Prover does: the same tier,
// the same proof bytes, the same counterexample.
func TestProverReuseAfterAbort(t *testing.T) {
	tab := expr.NewTable(0)
	x, y := tab.Var(0, 8), tab.Var(1, 8)
	// Valid, but it takes real CDCL search once the rewrite tier is off
	// (TestProveLocalLeavesOptions in internal/loader uses it the same way).
	commute := tab.Eq(tab.Mul(x, y), tab.Mul(y, x))
	// The same over the low nibbles takes a search too, a short one.
	x4, y4 := tab.And(x, tab.Const(15, 8)), tab.And(y, tab.Const(15, 8))
	bitblastOnly := solver.Options{DisableRewriteTier: true}
	for _, tc := range []struct {
		name  string
		cond  *expr.Expr
		opts  solver.Options
		proof bool
	}{
		{"bitblast-proof", tab.Eq(tab.Mul(x4, y4), tab.Mul(y4, x4)), bitblastOnly, true},
		{"counterexample", tab.Eq(tab.Mul(x, y), tab.Add(x, y)), bitblastOnly, false},
		{"rewrite-proof", tab.Ule(tab.And(x, tab.Const(7, 8)), tab.Const(7, 8)), solver.Options{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p solver.Prover
			_, err := p.Prove(nil, commute, solver.Options{MaxConflicts: 1, DisableRewriteTier: true})
			if bcferr.ClassOf(err) != bcferr.ClassSolverTimeout {
				t.Fatalf("a 1-conflict budget must cut the search off, got %v", err)
			}
			got, err := p.Prove(nil, tc.cond, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes := proofBytes(t, got)
			want, err := solver.Prove(nil, tc.cond, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Proven != tc.proof || want.Proven != tc.proof {
				t.Fatalf("proven: reused %v, new %v, want %v", got.Proven, want.Proven, tc.proof)
			}
			if got.Tier != want.Tier {
				t.Errorf("tier: reused %s, new %s", got.Tier, want.Tier)
			}
			if !bytes.Equal(gotBytes, proofBytes(t, want)) {
				t.Errorf("the reused Prover's proof (%d B) differs from a new Prover's", len(gotBytes))
			}
			if !maps.Equal(got.Counterexample, want.Counterexample) {
				t.Errorf("counterexample: reused %v, new %v", got.Counterexample, want.Counterexample)
			}
		})
	}
}

// proofBytes encodes an outcome's proof, or returns nil for a
// counterexample.
func proofBytes(t *testing.T, out *solver.Outcome) []byte {
	t.Helper()
	if !out.Proven {
		return nil
	}
	b, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
