package loader

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/faultinject"
	"bcf/internal/obs"
	"bcf/internal/solver"
)

// oneCondProg needs exactly one refinement (the Figure 2 pattern).
func oneCondProg() *ebpf.Program {
	return prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r3 = 0xf
		r3 -= r2
		r1 += r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
}

// twoCondProg needs two refinements.
func twoCondProg() *ebpf.Program {
	return prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		r7 = 0xf
		r7 -= r6
		r1 = r0
		r1 += r6
		r1 += r7
		r2 = *(u8 *)(r1 +0)
		r8 = *(u64 *)(r0 +8)
		r8 &= 0x7
		r9 = 0x7
		r9 -= r8
		r1 = r0
		r1 += r8
		r1 += r9
		r1 += 4
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
}

// waitGoroutineBaseline fails unless the goroutine count is back at the
// recorded baseline within 5 s: a load leaves no goroutine behind.
func waitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
}

func TestLoadDeadlineClassified(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := faultinject.New(1).Arm(faultinject.ProverDelay).SetDelay(150 * time.Millisecond)
	start := time.Now()
	res := Load(oneCondProg(), Options{
		EnableBCF:   true,
		LoadTimeout: 30 * time.Millisecond,
		Fault:       inj,
	})
	if res.Accepted {
		t.Fatal("deadline-exceeded load was accepted")
	}
	if res.ErrClass != bcferr.ClassSolverTimeout {
		t.Fatalf("class = %v (%v), want solver-timeout", res.ErrClass, res.Err)
	}
	if !errors.Is(res.Err, bcferr.ErrSolverTimeout) {
		t.Fatalf("sentinel does not match: %v", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("load did not return promptly: %v", elapsed)
	}
	waitGoroutineBaseline(t, base)
}

func TestRoundCapClassified(t *testing.T) {
	base := runtime.NumGoroutine()
	res := Load(twoCondProg(), Options{
		EnableBCF: true,
		Session:   bcf.SessionLimits{MaxRequests: 1},
	})
	if res.Accepted {
		t.Fatal("round-capped load was accepted")
	}
	if res.ErrClass != bcferr.ClassResourceLimit {
		t.Fatalf("class = %v (%v), want resource-limit", res.ErrClass, res.Err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	waitGoroutineBaseline(t, base)
	// Without the cap the same program loads fine.
	if res := Load(twoCondProg(), Options{EnableBCF: true}); !res.Accepted || res.Rounds != 2 {
		t.Fatalf("uncapped control failed: %+v err=%v", res.Rounds, res.Err)
	}
}

func TestProverErrorClassified(t *testing.T) {
	inj := faultinject.New(2).Arm(faultinject.ProverError, 0)
	res := Load(oneCondProg(), Options{EnableBCF: true, Fault: inj})
	if res.Accepted {
		t.Fatal("accepted despite prover crash")
	}
	if !errors.Is(res.Err, bcferr.ErrProtocol) {
		t.Fatalf("want protocol class, got %v (%v)", res.ErrClass, res.Err)
	}
}

func TestSATBudgetInjectionClassified(t *testing.T) {
	inj := faultinject.New(3).Arm(faultinject.SATBudget, 0)
	res := Load(oneCondProg(), Options{EnableBCF: true, Fault: inj})
	if res.Accepted {
		t.Fatal("accepted despite injected budget exhaustion")
	}
	if res.ErrClass != bcferr.ClassSolverTimeout {
		t.Fatalf("class = %v (%v), want solver-timeout", res.ErrClass, res.Err)
	}
}

func TestDropResumeAbortsSessionWithoutLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	inj := faultinject.New(4).Arm(faultinject.DropResume, 0)
	res := Load(oneCondProg(), Options{EnableBCF: true, Fault: inj})
	if res.Accepted {
		t.Fatal("abandoned load was accepted")
	}
	if res.ErrClass != bcferr.ClassProtocol {
		t.Fatalf("class = %v (%v), want protocol", res.ErrClass, res.Err)
	}
	waitGoroutineBaseline(t, base)
}

func TestCondCorruptionNeverAccepted(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inj := faultinject.New(seed).Arm(faultinject.CondCorrupt, 0)
		res := Load(oneCondProg(), Options{EnableBCF: true, Fault: inj})
		if inj.Fired(faultinject.CondCorrupt) == 0 {
			t.Fatal("corruption did not fire")
		}
		if res.Accepted {
			t.Fatalf("seed %d: corrupted condition led to acceptance", seed)
		}
		if res.ErrClass == bcferr.ClassNone {
			t.Fatalf("seed %d: rejection not classified: %v", seed, res.Err)
		}
	}
}

func TestProofCorruptionRejectedByChecker(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inj := faultinject.New(seed).Arm(faultinject.ProofCorrupt, 0)
		res := Load(oneCondProg(), Options{EnableBCF: true, Fault: inj})
		if res.Accepted {
			t.Fatalf("seed %d: corrupted proof was accepted", seed)
		}
		if res.ErrClass != bcferr.ClassProofRejected {
			t.Fatalf("seed %d: class = %v (%v), want proof-rejected", seed, res.ErrClass, res.Err)
		}
	}
}

func TestProofReplayRejected(t *testing.T) {
	inj := faultinject.New(5).Arm(faultinject.ProofReplay, 1)
	res := Load(twoCondProg(), Options{EnableBCF: true, Fault: inj})
	if inj.Fired(faultinject.ProofReplay) == 0 {
		t.Skip("conditions were byte-identical; replay indistinguishable")
	}
	if res.Accepted {
		t.Fatal("stale replayed proof was accepted")
	}
	if res.ErrClass != bcferr.ClassProofRejected {
		t.Fatalf("class = %v (%v), want proof-rejected", res.ErrClass, res.Err)
	}
}

// TestProveLocalLeavesOptions checks that ProveLocal fills the solver's
// telemetry on its own copy of the caller's options. 8-bit
// multiplication commutativity is valid but takes real CDCL search once
// the rewrite tier is off, so a one-conflict cut-off fails it as a
// solver timeout; under the default options it is proven.
func TestProveLocalLeavesOptions(t *testing.T) {
	tab := expr.NewTable(0)
	x, y := tab.Var(0, 8), tab.Var(1, 8)
	condBytes, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: tab.Eq(tab.Mul(x, y), tab.Mul(y, x))})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Solver: solver.Options{MaxConflicts: 1, DisableRewriteTier: true},
		Obs: obs.NewRegistry(), Trace: obs.NewTracer()}
	want := opts.Solver
	if _, err := ProveLocal(context.Background(), condBytes, &opts); bcferr.ClassOf(err) != bcferr.ClassSolverTimeout {
		t.Fatalf("a 1-conflict budget must cut the search off, got %v", err)
	}
	if opts.Solver != want {
		t.Fatalf("ProveLocal changed the caller's solver options: %+v, want %+v", opts.Solver, want)
	}
	if _, err := ProveLocal(context.Background(), condBytes, &Options{}); err != nil {
		t.Fatalf("the default options should prove commutativity: %v", err)
	}
}

func TestSessionLimitsForwarded(t *testing.T) {
	// The request budget is TestRoundCapClassified's; this one forwards
	// a byte budget.
	res := Load(twoCondProg(), Options{
		EnableBCF: true,
		Session:   bcf.SessionLimits{MaxProofBytes: 1},
	})
	if res.Accepted {
		t.Fatal("accepted past the session proof-byte budget")
	}
	if res.ErrClass != bcferr.ClassResourceLimit {
		t.Fatalf("class = %v (%v), want resource-limit", res.ErrClass, res.Err)
	}
}

func TestAcceptedLoadsClassifyAsNone(t *testing.T) {
	res := Load(oneCondProg(), Options{EnableBCF: true})
	if !res.Accepted || res.ErrClass != bcferr.ClassNone {
		t.Fatalf("accepted load misclassified: %v (%v)", res.ErrClass, res.Err)
	}
	// Plain unsafe rejection defaults to ClassUnsafe.
	unsafe := prog(`
		r0 = *(u64 *)(r10 -520)
		exit
	`)
	res = Load(unsafe, Options{EnableBCF: true})
	if res.Accepted || res.ErrClass != bcferr.ClassUnsafe {
		t.Fatalf("unsafe rejection misclassified: %v (%v)", res.ErrClass, res.Err)
	}
}
