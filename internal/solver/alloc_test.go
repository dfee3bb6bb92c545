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
// default options, in two passes.
//
// Cold, each condition through a new Prover (the one-shot solver.Prove):
// the encoder emits into one literal buffer, and the SAT solver keeps
// clause headers and literals in two slices sized up front and marks
// variables in reused arrays, so nothing on the path allocates per
// clause or per conflict; a map or a per-clause slice put back on that
// path shows up here as several allocations per clause. Measured: 0.43
// allocations and 291 B per clause (Go 1.24, linux/amd64).
//
// Warm, every condition through one Prover that has proved them all
// once, as ProveLocal's pooled Provers do: the encoder's buffers and bit
// vector slab, the solver's arrays and the proof-step buffers already
// fit, so what is left is the rewrite tier's failed attempt, a watch list
// that outgrows its room and the counterexample maps. An array the
// Prover stops keeping from one Prove to the next costs at least 16 B
// per clause. Measured: 0.13 allocations and 2 B per clause (same
// toolchain).
func TestBitblastTierAllocsPerClause(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const (
		bitblastConds         = 306 // the bitblast-cold programs' one obligation each
		maxPerClause          = 2.0
		maxWarmPerClause      = 0.25
		maxWarmBytesPerClause = 16.0
	)
	run := runCorpus(t, solver.Options{}, false)
	if len(run.bitblast) != bitblastConds {
		t.Fatalf("corpus sent %d conditions to the bit-blast tier, want %d", len(run.bitblast), bitblastConds)
	}
	clauses := 0
	for _, cond := range run.bitblast {
		cnf, err := bitblast.Encode(expr.BoolNot(cond))
		if err != nil {
			t.Fatal(err)
		}
		clauses += len(cnf.Clauses)
	}
	var warm solver.Prover
	for _, cond := range run.bitblast {
		if _, err := warm.Prove(nil, cond, solver.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pass := range []struct {
		name                string
		prover              func() *solver.Prover
		maxAllocs, maxBytes float64
	}{
		{"cold", func() *solver.Prover { return new(solver.Prover) }, maxPerClause, 0},
		{"warm", func() *solver.Prover { return &warm }, maxWarmPerClause, maxWarmBytesPerClause},
	} {
		var allocs float64
		var bytes uint64
		for _, cond := range run.bitblast {
			prove := func() {
				if _, err := pass.prover().Prove(nil, cond, solver.Options{}); err != nil {
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
		perClause, bytesPerClause := allocs/float64(clauses), float64(bytes)/float64(clauses)
		t.Logf("%s: %.0f allocations and %d B over %d clauses: %.2f allocations and %.0f B per clause",
			pass.name, allocs, bytes, clauses, perClause, bytesPerClause)
		if perClause > pass.maxAllocs {
			t.Errorf("%s bit-blast tier allocates %.2f times per CNF clause, bound %.2f", pass.name, perClause, pass.maxAllocs)
		}
		if pass.maxBytes > 0 && bytesPerClause > pass.maxBytes {
			t.Errorf("%s bit-blast tier allocates %.0f B per CNF clause, bound %.0f", pass.name, bytesPerClause, pass.maxBytes)
		}
	}
}
