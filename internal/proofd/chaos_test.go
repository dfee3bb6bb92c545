package proofd

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/faultinject"
	"bcf/internal/loader"
	"bcf/internal/prooffleet"
)

// chaosLoadOpts mirrors the hardened-loop soak configuration: generous
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

func faultyClient(t *testing.T, endpoint string, inj *faultinject.Injector) *prooffleet.Fleet {
	t.Helper()
	return newFleetOfOne(t, prooffleet.Options{
		Endpoints:      []string{endpoint},
		RequestTimeout: 5 * time.Second,
		Fault:          inj,
	})
}

// TestChaosRemoteProving is the soak test for the RPC proving path: a
// slice of the §6 corpus is loaded against a real daemon through a fleet
// of one while the client-side injector flaps the backend, stalls
// replies and corrupts reply payloads. Invariants, per (program,
// schedule) pair:
//
//  1. termination — no injected fault may hang the load;
//  2. degradation — an RPC fault ends in a classified error or a
//     transparent fallback to the in-process solver, never in limbo:
//     if the injector fired and the load still succeeded, fallbacks
//     absorbed every failure;
//  3. soundness — an accept under injection implies the clean
//     in-process load of the same program also accepts. The kernel-side
//     checker validates every proof regardless of where it was found,
//     so wire corruption can cost performance but never soundness.
func TestChaosRemoteProving(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	entries := corpus.Generate()
	_, endpoint := startServer(t, Options{})

	fired := 0
	for i := 0; i < len(entries); i += 64 { // 8 programs across families
		e := entries[i]
		clean := loader.Load(e.Prog, chaosLoadOpts(nil))

		for s := int64(0); s < 4; s++ {
			seed := s*31 + int64(i)
			inj := faultinject.New(seed)
			switch s {
			case 0:
				inj.Arm(faultinject.FleetFlap) // every request: daemon unreachable
			case 1:
				inj.Arm(faultinject.FleetByzantine) // every reply: bytes mangled
			case 2:
				inj.Arm(faultinject.FleetSlow).SetDelay(10 * time.Millisecond)
			case 3:
				// Mixed: first request dropped, second reply corrupted.
				inj.Arm(faultinject.FleetFlap, 0).Arm(faultinject.FleetByzantine, 1)
			}
			client := faultyClient(t, endpoint, inj)

			start := time.Now()
			res := loader.Load(e.Prog, chaosLoadOpts(client))
			elapsed := time.Since(start)
			fired += len(inj.Events())

			if elapsed > 30*time.Second {
				t.Fatalf("%s seed %d: load ran %v, past its deadline", e.Prog.Name, seed, elapsed)
			}
			if res.Accepted {
				if res.ErrClass != bcferr.ClassNone {
					t.Fatalf("%s seed %d: accepted but classified %v", e.Prog.Name, seed, res.ErrClass)
				}
				if !clean.Accepted {
					t.Fatalf("%s seed %d: ACCEPTED under RPC faults %v but the clean load rejects",
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
			// Degradation accounting. With every request dropped
			// (schedule 0) nothing can be proven remotely: an accepted
			// load must have fallen back for each obligation. Corruption
			// (schedule 1) is weaker — a flip landing in the reply's
			// source byte leaves the proof intact, so a remote success is
			// legitimate; the soundness invariant above still binds it.
			if s == 0 && res.RemoteProofs != 0 {
				t.Fatalf("%s seed %d: %d remote proofs despite every request being dropped",
					e.Prog.Name, seed, res.RemoteProofs)
			}
			if s == 0 && inj.FiredAny() && res.Accepted && res.RemoteFallbacks == 0 {
				t.Fatalf("%s seed %d: faults fired (%v) but no fallback recorded",
					e.Prog.Name, seed, inj.Events())
			}
		}
	}
	if fired == 0 {
		t.Error("no RPC fault fired; the soak is vacuous")
	}
}

// TestChaosDaemonKilledMidRun kills the daemon between loads: proving
// degrades from remote to in-process without changing any verdict.
func TestChaosDaemonKilledMidRun(t *testing.T) {
	entries := corpus.Generate()

	s := New(Options{})
	sock := filepath.Join(t.TempDir(), "bcfd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	client := newFleetOfOne(t, prooffleet.Options{
		Endpoints:      []string{"unix:" + sock},
		ConnectTimeout: time.Second,
	})

	// Find a corpus entry that actually proves something remotely.
	var probe int = -1
	for i := 0; i < len(entries); i += 16 {
		res := loader.Load(entries[i].Prog, chaosLoadOpts(client))
		if res.RemoteProofs > 0 {
			if !res.Accepted {
				t.Fatalf("%s: rejected with daemon up: %v", entries[i].Prog.Name, res.Err)
			}
			probe = i
			break
		}
	}
	if probe < 0 {
		t.Fatal("no corpus slice triggered remote proving")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// Same program, dead daemon: the verdict must not change, and every
	// obligation must have been proven in process.
	res := loader.Load(entries[probe].Prog, chaosLoadOpts(client))
	if !res.Accepted {
		t.Fatalf("load rejected after daemon death: %v", res.Err)
	}
	if res.RemoteProofs != 0 {
		t.Fatalf("%d remote proofs from a dead daemon", res.RemoteProofs)
	}
	if res.RemoteFallbacks == 0 {
		t.Fatal("no fallbacks recorded against a dead daemon")
	}
}
