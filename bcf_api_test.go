package bcf

// Tests of the public API surface (the library a downstream user sees).

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bcf/internal/difftest"
	"bcf/internal/proofd"
)

func apiFig2() *Program {
	return fig2Program() // from bench_test.go
}

func TestPublicVerifyBaselineVsBCF(t *testing.T) {
	prog := apiFig2()
	base := Verify(prog)
	if base.Accepted {
		t.Fatal("baseline must reject the Figure 2 program")
	}
	if base.Err == nil || !strings.Contains(base.Err.Error(), "map value") {
		t.Fatalf("unexpected baseline error: %v", base.Err)
	}
	rep := Verify(prog, WithBCF())
	if !rep.Accepted {
		t.Fatalf("BCF must accept: %v", rep.Err)
	}
	if rep.Refinements != 1 || rep.RefinementRequests != 1 || rep.RefinementsReused != 0 {
		t.Fatalf("expected exactly one refinement, shipped, got %d/%d/%d",
			rep.Refinements, rep.RefinementRequests, rep.RefinementsReused)
	}
	if rep.ProofBytes == 0 || rep.ConditionBytes == 0 {
		t.Fatal("wire traffic not recorded")
	}
	if rep.KernelNanos <= 0 || rep.UserNanos <= 0 {
		t.Fatal("time split not recorded")
	}
	details := rep.RefinementDetails()
	if len(details) != 1 || details[0].ProofBytes != rep.ProofBytes {
		t.Fatalf("details inconsistent: %+v", details)
	}
}

func TestPublicAssembleErrors(t *testing.T) {
	if _, err := Assemble("r1 = bogus ="); err == nil {
		t.Fatal("expected assembly error")
	}
	insns, err := Assemble("r0 = 0\nexit")
	if err != nil || len(insns) != 2 {
		t.Fatalf("assemble: %v %d", err, len(insns))
	}
}

func TestPublicBytecodeRoundTrip(t *testing.T) {
	insns := MustAssemble(`
		r0 = 1234567890123 ll
		r0 += 1
		exit
	`)
	raw := EncodeBytecode(insns)
	back, err := DecodeBytecode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(insns) {
		t.Fatalf("length changed: %d -> %d", len(insns), len(back))
	}
	for i := range insns {
		if back[i] != insns[i] {
			t.Fatalf("insn %d changed", i)
		}
	}
}

func TestPublicDebugLog(t *testing.T) {
	rep := Verify(apiFig2(), WithBCF(), WithDebug())
	if !rep.Accepted || len(rep.Log) == 0 {
		t.Fatalf("debug log missing (accepted=%v)", rep.Accepted)
	}
	found := false
	for _, line := range rep.Log {
		if strings.Contains(line, "refined") {
			found = true
		}
	}
	if !found {
		t.Fatal("log does not mention the refinement")
	}
}

func TestPublicCounterexampleSurface(t *testing.T) {
	// Listing 1: genuinely unsafe; the counterexample must surface.
	prog := &Program{
		Name: "unsafe", Type: ProgTracepoint,
		Insns: MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r2 <<= 1
			r1 += r2
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
		Maps: []*MapSpec{{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}},
	}
	rep := Verify(prog, WithBCF())
	if rep.Accepted {
		t.Fatal("unsafe program accepted")
	}
	if rep.Counterexample == nil {
		t.Fatalf("counterexample missing: %v", rep.Err)
	}
}

// TestPublicSolverBudget: the one condition difftest seed 544 asks is
// one no search within the solver's budget decides, so the public API
// rejects the program with a classified solver timeout, under its
// default options and with no deadline.
func TestPublicSolverBudget(t *testing.T) {
	rep := Verify(difftest.NewGen(544).Generate(), WithBCF())
	if rep.Accepted || rep.Class != ClassSolverTimeout {
		t.Fatalf("accepted %v, class %v (%v), want a solver-timeout rejection", rep.Accepted, rep.Class, rep.Err)
	}
}

func TestPublicLoopInvariantOption(t *testing.T) {
	prog := &Program{
		Name: "loop", Type: ProgTracepoint,
		Insns: MustAssemble(`
			r7 = r1
			r6 = 0
		loop:
			r6 += 1
			r2 = *(u32 *)(r7 +0)
			if r2 != 0 goto loop
			r0 = 0
			exit
		`),
	}
	noInv := Verify(prog, WithInsnLimit(1000))
	if noInv.Accepted {
		t.Fatal("expected budget exhaustion without invariant")
	}
	withInv := Verify(prog, WithInsnLimit(1000), WithLoopInvariant(2, 6, 0, ^uint64(0)))
	if !withInv.Accepted {
		t.Fatalf("invariant variant rejected: %v", withInv.Err)
	}
}

func TestPublicDisassemble(t *testing.T) {
	prog := apiFig2()
	text := Disassemble(prog)
	if !strings.Contains(text, "r2 &= 15") || !strings.Contains(text, "exit") {
		t.Fatalf("unexpected disassembly:\n%s", text)
	}
}

func TestPublicInterpreterOracle(t *testing.T) {
	prog := apiFig2()
	if rep := Verify(prog, WithBCF()); !rep.Accepted {
		t.Fatalf("setup: %v", rep.Err)
	}
	for seed := int64(0); seed < 10; seed++ {
		in := NewInterp(prog, seed)
		if _, fault := in.Run(make([]byte, prog.Type.CtxSize())); fault != nil {
			t.Fatalf("fault at seed %d: %v", seed, fault)
		}
	}
}

func TestPublicRemoteFleet(t *testing.T) {
	// Two real daemons on Unix sockets.
	var endpoints []string
	for i := 0; i < 2; i++ {
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
		endpoints = append(endpoints, "unix:"+sock)
	}

	fleet, err := NewRemoteFleet(FleetOptions{Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	rep := Verify(apiFig2(), WithBCF(), WithRemoteProver(fleet))
	if !rep.Accepted {
		t.Fatalf("rejected: %v", rep.Err)
	}
	if rep.RemoteProofs == 0 {
		t.Fatal("no obligations proven by the fleet")
	}
	if st := fleet.Stats(); st.Dispatches == 0 {
		t.Fatal("fleet stats recorded no dispatches")
	}

	// A fleet of dead endpoints degrades to the in-process solver with
	// the verdict unchanged.
	deadFleet, err := NewRemoteFleet(FleetOptions{
		Endpoints:      []string{"unix:" + filepath.Join(t.TempDir(), "gone.sock")},
		ConnectTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer deadFleet.Close()
	rep = Verify(apiFig2(), WithBCF(), WithRemoteProver(deadFleet))
	if !rep.Accepted {
		t.Fatalf("rejected with dead fleet: %v", rep.Err)
	}
	if rep.RemoteFallbacks == 0 {
		t.Fatal("no fallbacks recorded against a dead fleet")
	}
}
