package bcf

import (
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
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

// honest plays user space by hand: decode, solve, encode.
func honest(t *testing.T) ProofService {
	return ProveFunc(func(condBytes []byte) ([]byte, error) {
		cond, err := bcfenc.DecodeCondition(condBytes)
		if err != nil {
			t.Fatalf("decode condition: %v", err)
		}
		out, err := solver.Prove(nil, cond.Cond, solver.Options{})
		if err != nil {
			t.Fatalf("prove: %v", err)
		}
		if !out.Proven {
			return nil, errNoProof
		}
		buf, err := bcfenc.EncodeProof(out.Proof)
		if err != nil {
			t.Fatal(err)
		}
		return buf, nil
	})
}

// load verifies prog with ref as its refiner, the kernel side of one
// load, and returns the verifier and its verdict.
func load(prog *ebpf.Program, cfg verifier.Config, ref *Refiner) (*verifier.Verifier, error) {
	cfg.Refiner = ref
	v := verifier.New(prog, cfg)
	return v, v.Verify()
}

var errNoProof = &verifier.Error{Msg: "no proof"}

func TestSessionManualDrive(t *testing.T) {
	ref := NewRefiner(honest(t))
	if _, err := load(sessionProg(), verifier.Config{}, ref); err != nil {
		t.Fatalf("manual session rejected: %v", err)
	}
	st := ref.Stats()
	if st.Granted != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.UserTime <= 0 {
		t.Fatal("user-space time not recorded")
	}
}

func TestSessionProofFailureRejects(t *testing.T) {
	calls := 0
	_, err := load(sessionProg(), verifier.Config{}, NewRefiner(ProveFunc(func([]byte) ([]byte, error) {
		calls++
		return nil, errNoProof
	})))
	if calls == 0 {
		t.Fatal("expected a condition")
	}
	if err == nil {
		t.Fatal("refusing to prove must reject the program")
	}
}

func TestSessionTruncatedProofRejected(t *testing.T) {
	user := honest(t)
	// A valid proof, truncated: must be rejected by decode or check.
	_, err := load(sessionProg(), verifier.Config{}, NewRefiner(ProveFunc(func(condBytes []byte) ([]byte, error) {
		buf, err := user.Prove(condBytes)
		return buf[:len(buf)/2], err
	})))
	if err == nil {
		t.Fatal("truncated proof led to acceptance")
	}
}

func TestSessionConditionBytesAreSelfContained(t *testing.T) {
	// The condition crossing the boundary must decode standalone and
	// reference only well-formed terms (nothing kernel-internal leaks).
	calls := 0
	load(sessionProg(), verifier.Config{}, NewRefiner(ProveFunc(func(condBytes []byte) ([]byte, error) {
		calls++
		cond, err := bcfenc.DecodeCondition(condBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := expr.NewTable(0).Intern(cond.Cond); err != nil {
			t.Fatal(err)
		}
		if cond.Cond.Width != 1 {
			t.Fatal("condition is not boolean")
		}
		return nil, errNoProof
	})))
	if calls == 0 {
		t.Fatal("expected a condition")
	}
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
	ref := NewRefiner(honest(t))
	if _, err := load(p, verifier.Config{}, ref); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if got := ref.Stats().Granted; got != 2 {
		t.Fatalf("expected 2 refinements, got %d", got)
	}
}
