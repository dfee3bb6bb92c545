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

// startFleet runs two in-process bcfd daemons on Unix sockets and
// returns a fleet over both with the given fault hook armed. A transport
// fault takes a backend down for prooffleet.DownFor, so two backends let
// one sweep see a fault on each before every dispatch falls back.
func startFleet(t *testing.T, hook prooffleet.FaultHook) *prooffleet.Fleet {
	t.Helper()
	dir := t.TempDir()
	var endpoints []string
	for _, name := range []string{"a.sock", "b.sock"} {
		s := proofd.New(proofd.Options{})
		sock := filepath.Join(dir, name)
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
		endpoints = append(endpoints, "unix:"+sock)
	}
	c, err := prooffleet.New(prooffleet.Options{Endpoints: endpoints, Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCorpusReplayParallelAndFaultyRemote replays every regression
// program through the domain and accept-implies-safe oracles, and
// through the accept-implies-safe oracle again with proving routed to a
// two-daemon fleet whose RPC path flaps, stalls and corrupts replies
// (faultinject). The remote verdicts must match the in-process ones:
// transport faults degrade to local fallback, never to a different
// verdict.
func TestCorpusReplayParallelAndFaultyRemote(t *testing.T) {
	// One injector for the whole sweep: flap the first dispatch, stall
	// the second reply, corrupt the third — then repeat nothing. The flap
	// fails the first key over to the other backend, which serves the
	// stalled reply; the corrupt reply takes that backend down too, and
	// the loads that follow fall back in process.
	inj := faultinject.New(99).
		Arm(faultinject.FleetFlap, 0).
		Arm(faultinject.FleetSlow, 1).
		Arm(faultinject.FleetByzantine, 2).
		SetDelay(time.Millisecond)
	remote := startFleet(t, inj)

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
