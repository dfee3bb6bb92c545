package prooffleet

import (
	"context"
	"testing"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/faultinject"
	"bcf/internal/loader"
	"bcf/internal/proofd"
)

// chaosLoadOpts mirrors the remote-proving soak configuration: generous
// deadlines so a hang is distinguishable from slowness.
func chaosLoadOpts(remote loader.RemoteProver) loader.Options {
	return loader.Options{
		EnableBCF:    true,
		Remote:       remote,
		LoadTimeout:  20 * time.Second,
		ProveTimeout: 5 * time.Second,
		Session:      bcf.SessionLimits{MaxRequests: 256},
	}
}

// faultyFleet builds a 3-backend fleet wired to the injector, with
// breaker and timeouts tightened so a soak iterates quickly.
func faultyFleet(t *testing.T, endpoints []string, inj *faultinject.Injector) *Fleet {
	t.Helper()
	var hook FaultHook
	if inj != nil {
		hook = inj
	}
	f, err := New(Options{
		Endpoints:       endpoints,
		ConnectTimeout:  500 * time.Millisecond,
		RequestTimeout:  5 * time.Second,
		ProbeInterval:   25 * time.Millisecond,
		BreakerCooldown: 100 * time.Millisecond,
		HedgeDelay:      20 * time.Millisecond,
		Fault:           hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestChaosFleetProving is the fleet soak: a slice of the §6 corpus is
// loaded against three real daemons while the injector flaps backends,
// partitions the client from a seeded subset, slows replies to a
// trickle and corrupts proofs (byzantine backends). Invariants, per
// (program, schedule) pair:
//
//  1. termination — no injected fleet fault may hang a load;
//  2. degradation — every fault ends in a classified error, a failover
//     to a replica, or a fallback to the in-process solver, never in
//     limbo;
//  3. soundness — an accept under injection implies the clean
//     in-process load of the same program also accepts: the kernel-side
//     checker guards every proof regardless of which backend (honest or
//     byzantine) produced it.
func TestChaosFleetProving(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	entries := corpus.Generate()
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	_, ep3 := startDaemon(t, proofd.Options{})
	endpoints := []string{ep1, ep2, ep3}

	for i := 0; i < len(entries); i += 64 { // 8 programs across families
		e := entries[i]
		clean := loader.Load(e.Prog, chaosLoadOpts(nil))

		for s := int64(0); s < 5; s++ {
			seed := s*31 + int64(i)
			inj := faultinject.New(seed)
			switch s {
			case 0:
				inj.Arm(faultinject.FleetFlap) // every dispatch: backend dies mid-request
			case 1:
				inj.Arm(faultinject.FleetPartition) // seeded subset unreachable
			case 2:
				inj.Arm(faultinject.FleetSlow).SetDelay(10 * time.Millisecond)
			case 3:
				inj.Arm(faultinject.FleetByzantine) // every proof reply corrupted
			case 4:
				// Mixed: flap the first dispatches, then byzantine replies.
				inj.Arm(faultinject.FleetFlap, 0, 1).Arm(faultinject.FleetByzantine, 2, 3)
			}
			fleet := faultyFleet(t, endpoints, inj)

			start := time.Now()
			res := loader.Load(e.Prog, chaosLoadOpts(fleet))
			elapsed := time.Since(start)

			if elapsed > 30*time.Second {
				t.Fatalf("%s seed %d: load ran %v, past its deadline", e.Prog.Name, seed, elapsed)
			}
			if res.Accepted {
				if res.ErrClass != bcferr.ClassNone {
					t.Fatalf("%s seed %d: accepted but classified %v", e.Prog.Name, seed, res.ErrClass)
				}
				if !clean.Accepted {
					t.Fatalf("%s seed %d: ACCEPTED under fleet faults %v but the clean load rejects",
						e.Prog.Name, seed, inj.Events())
				}
			} else {
				if res.ErrClass == bcferr.ClassNone {
					t.Fatalf("%s seed %d: unclassified rejection: %v (faults %v)",
						e.Prog.Name, seed, res.Err, inj.Events())
				}
				if res.Err == nil {
					t.Fatalf("%s seed %d: rejected with nil error", e.Prog.Name, seed)
				}
			}
			// Degradation accounting. With every dispatch flapped
			// (schedule 0) no backend can answer: an accepted load must
			// have fallen back in process for each obligation. Byzantine
			// corruption (schedule 3) is weaker — a flip landing in the
			// reply's source byte leaves the proof intact, so a remote
			// success is legitimate; the soundness invariant above still
			// binds it, and any fallback that did happen must trace back
			// to a detected byzantine reply (nothing else was armed).
			if s == 0 && res.RemoteProofs != 0 {
				t.Fatalf("%s seed %d: %d remote proofs despite every dispatch being flapped",
					e.Prog.Name, seed, res.RemoteProofs)
			}
			if s == 0 && inj.FiredAny() && res.Accepted && res.RemoteFallbacks == 0 {
				t.Fatalf("%s seed %d: faults fired (%v) but no fallback recorded",
					e.Prog.Name, seed, inj.Events())
			}
			if s == 3 && res.RemoteFallbacks > 0 && fleet.Stats().Byzantine == 0 {
				t.Fatalf("%s seed %d: fell back %d times under a byzantine-only schedule without detecting corruption",
					e.Prog.Name, seed, res.RemoteFallbacks)
			}
		}
	}
}

// TestChaosFleetBackendKilledAndRestarted kills one of three daemons
// mid-run and later restarts it: loads keep completing throughout (via
// failover or fallback) and verdicts never change.
func TestChaosFleetBackendKilledAndRestarted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	entries := corpus.Generate()
	var progs []int
	for i := 0; i < len(entries) && len(progs) < 6; i += 32 {
		progs = append(progs, i)
	}

	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	victimSock := t.TempDir() + "/victim.sock"
	victim, ep3 := startDaemonAt(t, proofd.Options{}, victimSock)

	fleet := faultyFleet(t, []string{ep1, ep2, ep3}, nil)

	verdict := func(i int) bool {
		res := loader.Load(entries[i].Prog, chaosLoadOpts(fleet))
		if !res.Accepted && res.ErrClass == bcferr.ClassNone {
			t.Fatalf("%s: unclassified rejection: %v", entries[i].Prog.Name, res.Err)
		}
		return res.Accepted
	}
	clean := make(map[int]bool, len(progs))
	for _, i := range progs {
		clean[i] = loader.Load(entries[i].Prog, chaosLoadOpts(nil)).Accepted
	}

	phase := 0
	for _, i := range progs {
		phase++
		switch phase {
		case 2: // kill the victim mid-run
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := victim.Shutdown(ctx); err != nil {
				t.Fatalf("victim shutdown: %v", err)
			}
			cancel()
		case 4: // resurrect it on the same socket
			startDaemonAt(t, proofd.Options{}, victimSock)
		}
		if got := verdict(i); got != clean[i] {
			t.Fatalf("%s: verdict %v during phase %d, clean load says %v",
				entries[i].Prog.Name, got, phase, clean[i])
		}
	}
}

// TestFleetFailoverDeterminism is the S3 acceptance test: the same
// corpus against the same topology produces identical accept/reject
// verdicts no matter which backends are killed mid-run. Resilience
// machinery may change *where* proofs come from, never *whether* a
// program loads.
func TestFleetFailoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism soak skipped in -short mode")
	}
	entries := corpus.Generate()
	var progs []int
	for i := 0; i < len(entries) && len(progs) < 8; i += 48 {
		progs = append(progs, i)
	}

	// run loads the corpus slice against a fresh 3-daemon topology,
	// killing the daemon at index kill (if >= 0) halfway through.
	run := func(kill int) map[int]bool {
		var servers []*proofd.Server
		var endpoints []string
		for j := 0; j < 3; j++ {
			s, ep := startDaemon(t, proofd.Options{})
			servers = append(servers, s)
			endpoints = append(endpoints, ep)
		}
		fleet := faultyFleet(t, endpoints, nil)
		verdicts := make(map[int]bool, len(progs))
		for n, i := range progs {
			if kill >= 0 && n == len(progs)/2 {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if err := servers[kill].Shutdown(ctx); err != nil {
					t.Fatalf("killing backend %d: %v", kill, err)
				}
				cancel()
			}
			res := loader.Load(entries[i].Prog, chaosLoadOpts(fleet))
			if !res.Accepted && res.ErrClass == bcferr.ClassNone {
				t.Fatalf("%s: unclassified rejection: %v", entries[i].Prog.Name, res.Err)
			}
			verdicts[i] = res.Accepted
		}
		return verdicts
	}

	baseline := run(-1)
	for kill := 0; kill < 3; kill++ {
		got := run(kill)
		for _, i := range progs {
			if got[i] != baseline[i] {
				t.Fatalf("%s: verdict %v with backend %d killed mid-run, %v with all alive",
					entries[i].Prog.Name, got[i], kill, baseline[i])
			}
		}
	}
}
