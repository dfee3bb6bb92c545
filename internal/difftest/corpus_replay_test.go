package difftest

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"bcf/internal/corpus"
	"bcf/internal/faultinject"
	"bcf/internal/loader"
	"bcf/internal/proofd"
	"bcf/internal/prooffleet"
)

// startDaemon runs an in-process bcfd on a Unix socket and returns a
// fleet of one (probing and hedging off) with the given fault hook armed.
func startDaemon(t *testing.T, hook prooffleet.FaultHook) *prooffleet.Fleet {
	t.Helper()
	s := proofd.New(proofd.Options{})
	sock := filepath.Join(t.TempDir(), "bcfd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-done
	})
	c, err := prooffleet.New(prooffleet.Options{
		Endpoints:     []string{"unix:" + sock},
		ProbeInterval: -1,
		HedgeDelay:    -1,
		Fault:         hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCorpusReplayParallelAndFaultyRemote replays every regression
// program through the domain and accept-implies-safe oracles, and
// through the accept-implies-safe oracle again with proving routed to a
// remote daemon whose RPC path flaps, stalls and corrupts replies
// (faultinject). The remote verdicts must match the in-process ones:
// transport faults degrade to local fallback, never to a different
// verdict.
func TestCorpusReplayParallelAndFaultyRemote(t *testing.T) {
	// One injector for the whole sweep: flap the first dispatch, stall
	// the second reply, corrupt the third — then repeat nothing (later
	// requests run clean), so the client exercises both its failure and
	// recovery paths.
	inj := faultinject.New(99).
		Arm(faultinject.FleetFlap, 0).
		Arm(faultinject.FleetSlow, 1).
		Arm(faultinject.FleetByzantine, 2).
		SetDelay(time.Millisecond)
	remote := startDaemon(t, inj)

	const seed = 1234
	for _, reg := range corpus.MustRegressions() {
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			// In-process baseline.
			if _, v := CheckDomain(reg.Prog, baseVerifierConfig(), inputsPerSeed, seed); v != nil {
				t.Fatalf("domain oracle: %v", v)
			}
			safeAccept, av := CheckAcceptSafe(reg.Prog, loader.Options{EnableBCF: true, Verifier: baseVerifierConfig()}, inputsPerSeed, seed)
			if av != nil {
				t.Fatalf("accept-safe oracle: %v", av)
			}
			if wantAccept := reg.Expect != "reject"; safeAccept != wantAccept {
				t.Fatalf("BCF loader accept=%v, corpus expects %q", safeAccept, reg.Expect)
			}

			// Accept-implies-safe with remote proving over the faulty RPC
			// path: transport faults may cost round trips, never verdicts.
			rOpts := loader.Options{EnableBCF: true, Verifier: baseVerifierConfig(), Remote: remote}
			rSafe, av := CheckAcceptSafe(reg.Prog, rOpts, inputsPerSeed, seed)
			if av != nil {
				t.Fatalf("remote accept-safe oracle: %v", av)
			}
			if rSafe != safeAccept {
				t.Fatalf("accept-safe verdict flipped with faulty remote prover: %v -> %v", safeAccept, rSafe)
			}
		})
	}
	for _, p := range []faultinject.Point{faultinject.FleetFlap, faultinject.FleetSlow, faultinject.FleetByzantine} {
		if inj.Fired(p) == 0 {
			t.Errorf("%v never fired; the faulty-remote leg of this test is vacuous", p)
		}
	}
}
