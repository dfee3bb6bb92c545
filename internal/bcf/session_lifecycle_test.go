package bcf

import (
	"errors"
	"runtime"
	"strings"
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
// stall. Verify returns a protocol verdict on the caller's goroutine,
// the stall is booked as user-space time, and no goroutine is left
// behind.
func TestSessionWatchdogReclaimsAbandonedSession(t *testing.T) {
	base := runtime.NumGoroutine()
	const stall = 30 * time.Millisecond
	ref := NewRefiner(ProveFunc(func([]byte) ([]byte, error) {
		time.Sleep(stall)
		return nil, errAbandoned
	}))
	_, err := load(sessionProg(), verifier.Config{}, ref)
	if bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("abandoned session verdict: %v, want a protocol error", err)
	}
	if got := ref.Stats().UserTime; got < stall {
		t.Fatalf("user time %v does not cover the %v stall", got, stall)
	}
	waitBaseline(t, base)
}

// TestSessionAbortMidCondition: user space proves the first of two
// conditions and abandons the second. The verdict is a protocol error,
// the verifier asks nothing further, and no goroutine is left behind.
func TestSessionAbortMidCondition(t *testing.T) {
	base := runtime.NumGoroutine()
	user, calls := honest(t), 0
	ref := NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) {
		if calls++; calls > 1 {
			return nil, errAbandoned
		}
		return user.Prove(cond)
	}))
	_, err := load(twoRefinementProg(), verifier.Config{}, ref)
	if err == nil || bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("aborted session must be rejected as protocol: %v", err)
	}
	if st := ref.Stats(); calls != 2 || st.Granted != 1 || st.Failed != 1 {
		t.Fatalf("calls %d, stats %+v; want 2 calls, 1 granted, 1 failed", calls, st)
	}
	waitBaseline(t, base)
}

func TestSessionRequestBudget(t *testing.T) {
	// Two refinements against a one-request budget: the second condition
	// must be refused kernel-side with a resource-limit error. The
	// refused request is recorded, but its bytes never left.
	ref := NewRefiner(honest(t))
	ref.Limits = SessionLimits{MaxRequests: 1}
	_, err := load(twoRefinementProg(), verifier.Config{}, ref)
	checkLimit(t, err, "bcf: session exceeded 1 refinement requests")
	if st := ref.Stats(); len(st.Requests) != 2 || st.CondBytes != st.Requests[0].CondBytes {
		t.Fatalf("%d requests, %d condition bytes; want 2 requests and only the first one's bytes", len(st.Requests), st.CondBytes)
	}
}

func TestSessionCondByteBudget(t *testing.T) {
	// The refused condition's bytes count: they are what broke the cap.
	ref := NewRefiner(honest(t))
	ref.Limits = SessionLimits{MaxCondBytes: 1}
	_, err := load(sessionProg(), verifier.Config{}, ref)
	checkLimit(t, err, "bcf: session exceeded 1 cumulative condition bytes")
	if st := ref.Stats(); len(st.Requests) != 1 || st.CondBytes != st.Requests[0].CondBytes || st.ProofBytes != 0 {
		t.Fatalf("%d requests, totals (%d, %d); want the one refused condition's bytes and no proof", len(st.Requests), st.CondBytes, st.ProofBytes)
	}
}

func TestSessionProofByteBudget(t *testing.T) {
	// The proof over the cap counts in the total but is never decoded.
	ref := NewRefiner(honest(t))
	ref.Limits = SessionLimits{MaxProofBytes: 1}
	_, err := load(sessionProg(), verifier.Config{}, ref)
	checkLimit(t, err, "bcf: session exceeded 1 cumulative proof bytes")
	if st := ref.Stats(); st.ProofBytes <= 1 || st.Requests[0].ProofBytes != 0 || st.Requests[0].CheckDuration != 0 {
		t.Fatalf("proof total %d, request %+v; want the refused proof counted and not checked", st.ProofBytes, st.Requests[0])
	}
}

// TestProofBytesCountWithError: bytes user space sends back alongside an
// error crossed the boundary, so they count toward the cap.
func TestProofBytesCountWithError(t *testing.T) {
	ref := NewRefiner(ProveFunc(func([]byte) ([]byte, error) {
		return make([]byte, 40), errNoProof
	}))
	if _, err := load(sessionProg(), verifier.Config{}, ref); err == nil {
		t.Fatal("a failed proof led to acceptance")
	}
	if st := ref.Stats(); st.ProofBytes != 40 || st.Requests[0].ProofBytes != 0 {
		t.Fatalf("proof total %d, request %d; want 40 and 0", st.ProofBytes, st.Requests[0].ProofBytes)
	}
}

// checkLimit fails unless err is a resource-limit rejection with the
// given message.
func checkLimit(t *testing.T, err error, msg string) {
	t.Helper()
	if err == nil {
		t.Fatal("accepted past the budget")
	}
	if bcferr.ClassOf(err) != bcferr.ClassResourceLimit || !errors.Is(err, bcferr.ErrResourceLimit) {
		t.Fatalf("class: %v", err)
	}
	if !strings.Contains(err.Error(), msg) {
		t.Fatalf("error %q does not say %q", err, msg)
	}
}

// TestSessionKernelSideFaultHook corrupts the bytes at the kernel
// boundary by wrapping the refiner's ProofService: the condition as
// it leaves the kernel, or the proof as it enters. In both cases the
// honest prover/checker pair must reject the load rather than accept
// corrupted state.
func TestSessionKernelSideFaultHook(t *testing.T) {
	run := func(p faultinject.Point) error {
		inj := faultinject.New(7).Arm(p, 0)
		round := 0
		_, err := load(sessionProg(), verifier.Config{}, NewRefiner(ProveFunc(func(condBytes []byte) ([]byte, error) {
			r := round
			round++
			cond, err := bcfenc.DecodeCondition(inj.Condition(r, condBytes))
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
			buf, _ = inj.Proof(r, buf)
			return buf, nil
		})))
		return err
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
