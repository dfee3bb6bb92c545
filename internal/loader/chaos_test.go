package loader

import (
	"runtime"
	"testing"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/faultinject"
)

// TestChaosLoadLoop is the soak test for the hardened protocol loop: a
// slice of the §6 corpus is loaded under randomized fault schedules and
// three invariants are asserted for every (program, schedule) pair:
//
//  1. soundness — if any corrupting fault fired, the load is rejected
//     (a flipped condition or proof must never produce an accept);
//  2. classification — every rejection carries a non-None error class,
//     every accept carries ClassNone;
//  3. termination — the load returns within its deadline and leaves no
//     goroutine behind (checked once at the end against baseline).
//
// Determinism is checked by replaying one schedule per program with a
// fresh injector built from the same seed.
func TestChaosLoadLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	entries := corpus.Generate()
	baseline := runtime.NumGoroutine()

	opts := func(inj *faultinject.Injector) Options {
		return Options{
			EnableBCF:    true,
			Fault:        inj,
			LoadTimeout:  20 * time.Second,
			ProveTimeout: 5 * time.Second,
			Session:      bcf.SessionLimits{MaxRequests: 256},
		}
	}

	runs := 0
	for i := 0; i < len(entries); i += 64 { // 8 programs across families
		e := entries[i]
		for s := int64(0); s < 6; s++ {
			seed := s*31 + int64(i)
			inj := faultinject.NewRandom(seed, 4)
			start := time.Now()
			res := Load(e.Prog, opts(inj))
			elapsed := time.Since(start)
			runs++

			tag := func() string { return e.Prog.Name }
			if elapsed > 30*time.Second {
				t.Fatalf("%s seed %d: load ran %v, past its deadline", tag(), seed, elapsed)
			}
			if inj.CorruptionFired() && res.Accepted {
				t.Fatalf("%s seed %d: ACCEPTED despite corruption %v",
					tag(), seed, inj.Events())
			}
			if res.Accepted && res.ErrClass != bcferr.ClassNone {
				t.Fatalf("%s seed %d: accepted but classified %v", tag(), seed, res.ErrClass)
			}
			if !res.Accepted {
				if res.ErrClass == bcferr.ClassNone {
					t.Fatalf("%s seed %d: unclassified rejection: %v (faults %v)",
						tag(), seed, res.Err, inj.Events())
				}
				if res.Err == nil {
					t.Fatalf("%s seed %d: rejected with nil error", tag(), seed)
				}
			}

			// Replay the first schedule of each program: same seed, fresh
			// injector — outcome and class must be identical.
			if s == 0 {
				res2 := Load(e.Prog, opts(faultinject.NewRandom(seed, 4)))
				if res2.Accepted != res.Accepted || res2.ErrClass != res.ErrClass {
					t.Fatalf("%s seed %d: nondeterministic: accepted %v/%v class %v/%v",
						tag(), seed, res.Accepted, res2.Accepted, res.ErrClass, res2.ErrClass)
				}
				runs++
			}
		}
	}
	if runs < 48 {
		t.Fatalf("soak ran only %d loads", runs)
	}

	// No goroutine may outlive the loads.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked by chaos loop: %d > baseline %d", n, baseline)
	}
}
