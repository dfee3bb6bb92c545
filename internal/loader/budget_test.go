package loader_test

import (
	"testing"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/difftest"
	"bcf/internal/loader"
)

// TestPathologicalSeedsTimeOut: each of three generated programs asks
// one condition that no search within the solver's budget decides.
// Under the default options each load ends in a classified solver
// timeout, with the error text pinned here: the budget is a function of
// the condition's CNF, so the search stops at the same conflict on every
// machine and at every GOMAXPROCS. The wall time is logged, not
// asserted.
func TestPathologicalSeedsTimeOut(t *testing.T) {
	const budgetExhausted = "bcf: user space produced no proof: loader: solver: solver: sat: conflict budget exhausted"
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{544, "insn 35: R1 min value is negative, either use unsigned index or do a if (index >=0) check: " +
			budgetExhausted + " (3087)"},
		{1389, "insn 51: invalid access to map value, value_size=24 off=4 size=2 (R1 max offset 4261412868): " +
			budgetExhausted + " (3043)"},
		{1800, "insn 53: R1 min value is negative, either use unsigned index or do a if (index >=0) check: " +
			budgetExhausted + " (3044)"},
	} {
		prog := difftest.NewGen(tc.seed).Generate()
		t0 := time.Now()
		res := loader.Load(prog, loader.Options{EnableBCF: true})
		t.Logf("seed %d: %v in %v", tc.seed, res.ErrClass, time.Since(t0))
		if res.ErrClass != bcferr.ClassSolverTimeout {
			t.Errorf("seed %d: class %v (%v), want solver-timeout", tc.seed, res.ErrClass, res.Err)
			continue
		}
		if got := res.Err.Error(); got != tc.want {
			t.Errorf("seed %d: error\n%s\nwant\n%s", tc.seed, got, tc.want)
		}
	}
}
