package bcf

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/faultinject"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// waitVerdict waits until the session's own verification goroutine has
// delivered its verdict: doneCh is buffered with capacity 1, so a pending
// verdict shows as one queued value, and a session that already consumed
// it (Abort) is finished. Unlike the process-wide goroutine count, this
// cannot be satisfied early by unrelated goroutines exiting.
func waitVerdict(t *testing.T, sess *Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !sess.finished && len(sess.doneCh) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never reached a verdict")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitBaseline(t *testing.T, base int) {
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

// TestSessionWatchdogReclaimsAbandonedSession is the goroutine-leak
// regression test: a loader that receives a condition and then walks away
// must not pin the verifier goroutine forever. The watchdog fires after
// ResumeTimeout and the session finishes with a protocol error.
func TestSessionWatchdogReclaimsAbandonedSession(t *testing.T) {
	base := runtime.NumGoroutine()
	sess := NewSession(sessionProg(), verifier.Config{})
	sess.Limits = SessionLimits{ResumeTimeout: 30 * time.Millisecond}
	lr := sess.Load()
	if lr.Done {
		t.Fatal("expected a pending condition")
	}
	// Abandon the session: no Resume, no Abort. The watchdog must
	// terminate the pump goroutine on its own.
	waitVerdict(t, sess)
	waitBaseline(t, base)
	// A straggling Resume after the watchdog fired must not deadlock and
	// must report the watchdog verdict.
	lr = sess.Resume(nil, nil)
	if !lr.Done || lr.Err == nil {
		t.Fatalf("post-watchdog resume: %+v", lr)
	}
	if bcferr.ClassOf(lr.Err) != bcferr.ClassProtocol {
		t.Fatalf("watchdog verdict class: %v", lr.Err)
	}
}

func TestSessionAbortMidCondition(t *testing.T) {
	base := runtime.NumGoroutine()
	sess := NewSession(sessionProg(), verifier.Config{})
	lr := sess.Load()
	if lr.Done {
		t.Fatal("expected a pending condition")
	}
	sess.Abort()
	waitVerdict(t, sess)
	waitBaseline(t, base)
	lr = sess.Resume(nil, nil)
	if !lr.Done || lr.Err == nil {
		t.Fatalf("aborted session must stay rejected: %+v", lr)
	}
	// Abort is idempotent.
	sess.Abort()
}

func TestSessionAbortBeforeLoad(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	sess.Abort()
	lr := sess.Load()
	if !lr.Done || lr.Err == nil {
		t.Fatalf("load after abort must fail: %+v", lr)
	}
}

func TestSessionDoubleLoad(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	first := sess.Load()
	if first.Done {
		t.Fatal("expected a pending condition")
	}
	second := sess.Load()
	if !second.Done || second.Err == nil {
		t.Fatalf("double load must fail: %+v", second)
	}
	if bcferr.ClassOf(second.Err) != bcferr.ClassProtocol {
		t.Fatalf("double load class: %v", second.Err)
	}
	sess.Abort()
}

func TestSessionRequestBudget(t *testing.T) {
	// Two refinements against a one-request budget: the second condition
	// must be refused kernel-side with a resource-limit error.
	sess := NewSession(twoRefinementProg(), verifier.Config{})
	sess.Limits = SessionLimits{MaxRequests: 1}
	err := driveManually(t, sess)
	if err == nil {
		t.Fatal("accepted past the request budget")
	}
	if bcferr.ClassOf(err) != bcferr.ClassResourceLimit {
		t.Fatalf("class: %v", err)
	}
}

func TestSessionCondByteBudget(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	sess.Limits = SessionLimits{MaxCondBytes: 1}
	err := driveManually(t, sess)
	if err == nil {
		t.Fatal("accepted past the condition byte budget")
	}
	if !errors.Is(err, bcferr.ErrResourceLimit) {
		t.Fatalf("sentinel: %v", err)
	}
}

func TestSessionProofByteBudget(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	sess.Limits = SessionLimits{MaxProofBytes: 1}
	err := driveManually(t, sess)
	if err == nil {
		t.Fatal("accepted past the proof byte budget")
	}
	if bcferr.ClassOf(err) != bcferr.ClassResourceLimit {
		t.Fatalf("class: %v", err)
	}
}

// TestSessionKernelSideFaultHook exercises the kernel-boundary hook pair:
// CondOut corrupts the condition as it leaves the kernel, ProofIn corrupts
// the proof as it enters. In both cases the honest prover/checker pair
// must reject the load rather than accept corrupted state.
func TestSessionKernelSideFaultHook(t *testing.T) {
	run := func(p faultinject.Point) error {
		sess := NewSession(sessionProg(), verifier.Config{})
		sess.Fault = faultinject.New(7).Arm(p, 0)
		lr := sess.Load()
		for !lr.Done {
			cond, err := bcfenc.DecodeCondition(lr.Condition)
			if err != nil {
				lr = sess.Resume(nil, err)
				continue
			}
			out, err := solver.Prove(nil, cond.Cond, solver.Options{})
			if err != nil || !out.Proven {
				lr = sess.Resume(nil, errNoProof)
				continue
			}
			buf, err := bcfenc.EncodeProof(out.Proof)
			if err != nil {
				t.Fatal(err)
			}
			lr = sess.Resume(buf, nil)
		}
		return lr.Err
	}
	if err := run(faultinject.CondCorrupt); err == nil {
		t.Fatal("kernel-side condition corruption led to acceptance")
	}
	if err := run(faultinject.ProofCorrupt); err == nil {
		t.Fatal("kernel-side proof corruption led to acceptance")
	} else if bcferr.ClassOf(err) != bcferr.ClassProofRejected {
		t.Fatalf("proof corruption class: %v", err)
	}
}

// twoRefinementProg needs two refinements (the two-access pattern from
// TestMultipleRefinementsOneLoad).
func twoRefinementProg() *ebpf.Program {
	return &ebpf.Program{
		Type: ebpf.ProgTracepoint,
		Maps: []*ebpf.MapSpec{{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 1}},
		Insns: ebpf.MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
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
		miss:
			r0 = 0
			exit
		`),
	}
}
