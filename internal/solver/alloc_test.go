package solver_test

import (
	"runtime"
	"testing"

	"bcf/internal/bitblast"
	"bcf/internal/expr"
	"bcf/internal/solver"
)

// TestBitblastTierAllocsPerClause bounds what the bit-blast tier
// allocates per CNF clause, over every condition the corpus sends it at
// default options. The encoder emits into one literal buffer, and the SAT
// solver keeps clause headers and literals in two slices it sizes on the
// first AddClause and marks variables in reused arrays, so nothing on the
// path allocates per clause or per conflict; a map or a per-clause slice
// put back on that path shows up here as several allocations per clause.
// Measured: 0.86 allocations per clause (Go 1.24, linux/amd64).
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
	var bytes uint64
	clauses := 0
	for _, cond := range run.bitblast {
		cnf, err := bitblast.Encode(expr.BoolNot(cond))
		if err != nil {
			t.Fatal(err)
		}
		clauses += len(cnf.Clauses)
		prove := func() {
			if _, err := solver.Prove(nil, cond, solver.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs += testing.AllocsPerRun(3, prove)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prove()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	perClause := allocs / float64(clauses)
	t.Logf("%.0f allocations and %d B over %d clauses: %.2f allocations and %.0f B per clause",
		allocs, bytes, clauses, perClause, float64(bytes)/float64(clauses))
	if perClause > maxPerClause {
		t.Errorf("bit-blast tier allocates %.2f times per CNF clause, bound %.1f", perClause, maxPerClause)
	}
}
