package bcf

import (
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/ebpf"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// sessionProg needs exactly one refinement (the Figure 2 pattern).
func sessionProg() *ebpf.Program {
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
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r3 = 0xf
			r3 -= r2
			r1 += r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
}

// driveManually plays user space by hand: decode, solve, encode, resume.
func driveManually(t *testing.T, sess *Session) error {
	t.Helper()
	lr := sess.Load()
	for !lr.Done {
		cond, err := bcfenc.DecodeCondition(lr.Condition)
		if err != nil {
			t.Fatalf("decode condition: %v", err)
		}
		out, err := solver.Prove(nil, cond.Cond, solver.Options{})
		if err != nil {
			t.Fatalf("prove: %v", err)
		}
		if !out.Proven {
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

var errNoProof = &verifier.Error{Msg: "no proof"}

func TestSessionManualDrive(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	if err := driveManually(t, sess); err != nil {
		t.Fatalf("manual session rejected: %v", err)
	}
	st := sess.Refiner().Stats()
	if st.Granted != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if sess.KernelTime() <= 0 || sess.UserTime() <= 0 {
		t.Fatal("session timing not recorded")
	}
}

func TestSessionResumeAfterDone(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	if err := driveManually(t, sess); err != nil {
		t.Fatal(err)
	}
	// Further resumes are idempotent and report the final verdict.
	res := sess.Resume([]byte("junk"), nil)
	if !res.Done || res.Err != nil {
		t.Fatalf("post-completion resume: %+v", res)
	}
}

func TestSessionProofFailureRejects(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	lr := sess.Load()
	if lr.Done {
		t.Fatal("expected a pending condition")
	}
	lr = sess.Resume(nil, errNoProof)
	for !lr.Done {
		lr = sess.Resume(nil, errNoProof)
	}
	if lr.Err == nil {
		t.Fatal("refusing to prove must reject the program")
	}
}

func TestSessionTruncatedProofRejected(t *testing.T) {
	sess := NewSession(sessionProg(), verifier.Config{})
	lr := sess.Load()
	if lr.Done {
		t.Fatal("expected a pending condition")
	}
	// A valid proof, truncated: must be rejected by decode or check.
	cond, err := bcfenc.DecodeCondition(lr.Condition)
	if err != nil {
		t.Fatal(err)
	}
	out, err := solver.Prove(nil, cond.Cond, solver.Options{})
	if err != nil || !out.Proven {
		t.Fatal(err)
	}
	buf, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	lr = sess.Resume(buf[:len(buf)/2], nil)
	for !lr.Done {
		lr = sess.Resume(nil, errNoProof)
	}
	if lr.Err == nil {
		t.Fatal("truncated proof led to acceptance")
	}
}

func TestSessionConditionBytesAreSelfContained(t *testing.T) {
	// The condition crossing the boundary must decode standalone and
	// reference only well-formed terms (nothing kernel-internal leaks).
	sess := NewSession(sessionProg(), verifier.Config{})
	lr := sess.Load()
	if lr.Done {
		t.Fatal("expected a pending condition")
	}
	cond, err := bcfenc.DecodeCondition(lr.Condition)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.Cond.CheckWellFormed(nil); err != nil {
		t.Fatal(err)
	}
	if cond.Cond.Width != 1 {
		t.Fatal("condition is not boolean")
	}
	sess.Abort()
}

func TestMultipleRefinementsOneLoad(t *testing.T) {
	// Two independent relational accesses: two conditions, two proofs.
	p := &ebpf.Program{
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
	sess := NewSession(p, verifier.Config{})
	if err := driveManually(t, sess); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if got := sess.Refiner().Stats().Granted; got != 2 {
		t.Fatalf("expected 2 refinements, got %d", got)
	}
}
