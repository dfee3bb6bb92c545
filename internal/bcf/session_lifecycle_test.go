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

// waitBaseline fails unless the goroutine count is back at base within
// 5 s.
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

// errAbandoned is user space walking away from a pending condition.
var errAbandoned = bcferr.New(bcferr.ClassProtocol, "test: user space abandoned the load")

// TestSessionWatchdogReclaimsAbandonedSession: user space that stalls on
// a condition and then walks away costs the kernel nothing beyond the
// stall. Run returns a protocol verdict on the caller's goroutine, the
// stall is booked as user-space time, no goroutine is left behind, and a
// straggling second Run is refused.
func TestSessionWatchdogReclaimsAbandonedSession(t *testing.T) {
	base := runtime.NumGoroutine()
	const stall = 30 * time.Millisecond
	sess := NewSession(sessionProg(), verifier.Config{})
	err := sess.Run(ProveFunc(func([]byte) ([]byte, error) {
		time.Sleep(stall)
		return nil, errAbandoned
	}))
	if bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("abandoned session verdict: %v, want a protocol error", err)
	}
	if got := sess.Refiner().Stats().UserTime; got < stall {
		t.Fatalf("user time %v does not cover the %v stall", got, stall)
	}
	waitBaseline(t, base)
	if err := sess.Run(honest(t)); bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("post-abandon run: %v, want a protocol error", err)
	}
}

// TestSessionAbortMidCondition: user space proves the first of two
// conditions and abandons the second. The verdict is a protocol error,
// the verifier asks nothing further, and no goroutine is left behind.
func TestSessionAbortMidCondition(t *testing.T) {
	base := runtime.NumGoroutine()
	sess := NewSession(twoRefinementProg(), verifier.Config{})
	user, calls := honest(t), 0
	err := sess.Run(ProveFunc(func(cond []byte) ([]byte, error) {
		if calls++; calls > 1 {
			return nil, errAbandoned
		}
		return user.Prove(cond)
	}))
	if err == nil || bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("aborted session must be rejected as protocol: %v", err)
	}
	if st := sess.Refiner().Stats(); calls != 2 || st.Granted != 1 || st.Failed != 1 {
		t.Fatalf("calls %d, stats %+v; want 2 calls, 1 granted, 1 failed", calls, st)
	}
	waitBaseline(t, base)
}

func TestSessionDoubleLoad(t *testing.T) {
	// A Run from inside user space, while a condition is pending, is a
	// protocol violation that leaves the running session undisturbed.
	sess := NewSession(sessionProg(), verifier.Config{})
	user := honest(t)
	var second error
	err := sess.Run(ProveFunc(func(cond []byte) ([]byte, error) {
		second = sess.Run(user)
		return user.Prove(cond)
	}))
	if err != nil {
		t.Fatalf("first run disturbed by the second: %v", err)
	}
	if second == nil || bcferr.ClassOf(second) != bcferr.ClassProtocol {
		t.Fatalf("double load class: %v", second)
	}
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
		return sess.Run(ProveFunc(func(condBytes []byte) ([]byte, error) {
			cond, err := bcfenc.DecodeCondition(condBytes)
			if err != nil {
				return nil, err
			}
			out, err := solver.Prove(nil, cond.Cond, solver.Options{})
			if err != nil || !out.Proven {
				return nil, errNoProof
			}
			buf, err := bcfenc.EncodeProof(out.Proof)
			if err != nil {
				t.Fatal(err)
			}
			return buf, nil
		}))
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
