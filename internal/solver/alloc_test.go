package solver_test

import (
	"testing"

	"bcf/internal/bitblast"
	"bcf/internal/expr"
	"bcf/internal/solver"
)

// TestBitblastTierAllocsPerClause bounds what the bit-blast tier
// allocates per CNF clause, over every condition the corpus sends it at
// default options. The SAT solver copies clauses into chunked arenas and
// marks variables in reused arrays, so nothing in it allocates per clause
// or per conflict; a map or a per-clause slice put back on that path
// shows up here as several allocations per clause.
func TestBitblastTierAllocsPerClause(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const (
		bitblastConds = 306 // the bitblast-cold programs' one obligation each
		maxPerClause  = 2.0
	)
	run := runCorpus(t, solver.Options{})
	if len(run.bitblast) != bitblastConds {
		t.Fatalf("corpus sent %d conditions to the bit-blast tier, want %d", len(run.bitblast), bitblastConds)
	}
	var allocs float64
	clauses := 0
	for _, cond := range run.bitblast {
		cnf, err := bitblast.Encode(expr.BoolNot(cond))
		if err != nil {
			t.Fatal(err)
		}
		clauses += len(cnf.Clauses)
		allocs += testing.AllocsPerRun(3, func() {
			if _, err := solver.Prove(nil, cond, solver.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	perClause := allocs / float64(clauses)
	t.Logf("%.0f allocations over %d clauses: %.2f per clause", allocs, clauses, perClause)
	if perClause > maxPerClause {
		t.Errorf("bit-blast tier allocates %.2f times per CNF clause, bound %.1f", perClause, maxPerClause)
	}
}
