package bcf

import (
	"bytes"
	"runtime"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// loopProg is the corpus's first loop-family program: about 200
// refinements of one access, each asking the same condition.
func loopProg(t *testing.T) *ebpf.Program {
	t.Helper()
	for _, e := range corpus.Generate() {
		if e.Family == corpus.Loop {
			return e.Prog
		}
	}
	t.Fatal("corpus has no loop-family program")
	return nil
}

// loopConfig is the corpus evaluation budget, at which a loop-family
// program runs out of instructions after ~205 refinements.
var loopConfig = verifier.Config{InsnLimit: 4000}

// counted wraps honest user space and counts its calls.
func counted(t *testing.T, calls *int) ProofService {
	h := honest(t)
	return ProveFunc(func(cond []byte) ([]byte, error) {
		*calls++
		return h.Prove(cond)
	})
}

// TestLoopShipsOneCondition pins the memo on the corpus's repeating
// family: the loop's one condition goes to user space once, and every
// later refinement is granted from that proof.
func TestLoopShipsOneCondition(t *testing.T) {
	calls := 0
	ref := NewRefiner(counted(t, &calls))
	v, _ := load(loopProg(t), loopConfig, ref) // the loop runs out of budget; the rounds are what matter
	st := ref.Stats()
	refinements := v.Stats().Refinements
	if calls != 1 || len(st.Requests) != 1 {
		t.Fatalf("user space called %d times, %d requests recorded; want 1 and 1", calls, len(st.Requests))
	}
	if refinements < 100 || st.Granted != refinements || st.Failed != 0 || st.Reused != refinements-1 {
		t.Fatalf("%d refinements: granted %d, failed %d, reused %d; want reused = refinements - 1",
			refinements, st.Granted, st.Failed, st.Reused)
	}
	if st.CondBytes != st.Requests[0].CondBytes {
		t.Fatalf("%d condition bytes shipped in total, the one request %d", st.CondBytes, st.Requests[0].CondBytes)
	}
}

// TestMemoLivesOneLoad pins that nothing proven crosses loads: a second
// load of the same program, with its own refiner, ships its condition
// again.
func TestMemoLivesOneLoad(t *testing.T) {
	prog := loopProg(t)
	for i := range 2 {
		calls := 0
		ref := NewRefiner(counted(t, &calls))
		_, _ = load(prog, loopConfig, ref)
		if st := ref.Stats(); calls != 1 || len(st.Requests) != 1 || st.Reused == 0 {
			t.Fatalf("load %d: user space called %d times, %d requests, %d reused; want 1, 1 and some",
				i, calls, len(st.Requests), st.Reused)
		}
	}
}

// recordProofs runs prog with honest user space and returns the proof of
// every condition shipped, in order.
func recordProofs(t *testing.T, prog *ebpf.Program) (proofs [][]byte) {
	t.Helper()
	h := honest(t)
	_, err := load(prog, verifier.Config{}, NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) {
		pf, err := h.Prove(cond)
		proofs = append(proofs, pf)
		return pf, err
	})))
	if err != nil {
		t.Fatalf("%s: honest load rejected: %v", prog.Name, err)
	}
	return proofs
}

// oneValidOneNot makes two map accesses whose conditions differ only in
// a constant and a variable number, and encode to equally many bytes:
// the first (offset 14 into a 16-byte value) is valid, the second
// (offset 16) has a counterexample.
func oneValidOneNot() *ebpf.Program {
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
			r7 = 0xe
			r7 -= r6
			r1 = r0
			r1 += r6
			r1 += r7
			r2 = *(u8 *)(r1 +0)
			r6 = *(u64 *)(r0 +0)
			r6 &= 0xf
			r7 = 0x10
			r7 -= r6
			r1 = r0
			r1 += r6
			r1 += r7
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
}

// TestMemoKeyIsKernelCopy plays a user space that proves the first
// condition honestly and then rewrites the buffer it was handed into the
// encoding of the second, invalid, condition. A memo keyed by that
// buffer would grant the second from the first's proof; the kernel's own
// copy of the bytes must not.
func TestMemoKeyIsKernelCopy(t *testing.T) {
	prog := oneValidOneNot()
	// The second condition's bytes, from a load that shows it invalid.
	var second []byte
	h := honest(t)
	_, err := load(prog, verifier.Config{}, NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) {
		second = bytes.Clone(cond)
		return h.Prove(cond)
	})))
	if err == nil || second == nil {
		t.Fatalf("honest load: %v, want a rejection at the second access", err)
	}
	calls := 0
	ref := NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) {
		calls++
		pf, err := h.Prove(cond)
		if calls == 1 {
			if len(cond) != len(second) || bytes.Equal(cond, second) {
				t.Fatalf("the two conditions must differ at equal length (%d and %d bytes)", len(cond), len(second))
			}
			copy(cond, second)
		}
		return pf, err
	}))
	if _, err = load(prog, verifier.Config{}, ref); err == nil {
		t.Fatal("a rewritten condition buffer let an invalid condition be granted")
	}
	if st := ref.Stats(); calls != 2 || st.Reused != 0 {
		t.Fatalf("user space called %d times, %d reused; want 2 and 0", calls, st.Reused)
	}
}

// TestMemoRemembersOnlyCheckedProofs pins that a condition enters the
// memo only once its proof checks: after a refinement fails on a forged
// proof, a proof of another condition or a counterexample, the same
// request asked again goes back to user space.
func TestMemoRemembersOnlyCheckedProofs(t *testing.T) {
	// A valid proof of a different condition: twoRoundProg's second.
	proofs := recordProofs(t, twoRoundProg())
	if len(proofs) != 2 {
		t.Fatalf("twoRoundProg shipped %d conditions, want 2", len(proofs))
	}
	for name, bad := range map[string]ProveFunc{
		"forged proof":   func([]byte) ([]byte, error) { return []byte("not a proof"), nil },
		"other proof":    func([]byte) ([]byte, error) { return proofs[1], nil },
		"counterexample": func([]byte) ([]byte, error) { return nil, errNoProof },
	} {
		t.Run(name, func(t *testing.T) {
			var user ProofService
			ref := NewRefiner(ProveFunc(func(cond []byte) ([]byte, error) { return user.Prove(cond) }))
			v := verifier.New(sessionProg(), verifier.Config{Refiner: refinerFunc(
				func(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
					user = bad
					if _, err := ref.Refine(req); err == nil {
						t.Fatal("a bad answer was granted")
					}
					user = honest(t)
					return ref.Refine(req)
				})})
			if err := v.Verify(); err != nil {
				t.Fatalf("rejected: %v", err)
			}
			st := ref.Stats()
			if len(st.Requests) != 2 || st.Reused != 0 || st.Granted != 1 || st.Failed != 1 {
				t.Fatalf("%d requests, %d reused, %d granted, %d failed; want 2, 0, 1, 1",
					len(st.Requests), st.Reused, st.Granted, st.Failed)
			}
		})
	}
}

// memoHitMaxBytes bounds the bytes one refinement granted from the memo
// allocates. Measured: 2,656 B on average over the loop program's 209
// hits (Go 1.24, linux/amd64), all of it backward analysis, tracking and
// the condition's encoding; a memo that kept each proof and decoded and
// checked it again on every hit read 6,216 B.
const memoHitMaxBytes = 4000

// TestMemoHitBytes bounds what a refinement granted from the memo
// allocates: nothing for a proof, its decode or its check.
func TestMemoHitBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	var shipped, reused, shippedBytes, reusedBytes uint64
	calls := 0
	ref := NewRefiner(counted(t, &calls))
	measure := refinerFunc(func(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
		var m0, m1 runtime.MemStats
		n := ref.Stats().Reused
		runtime.ReadMemStats(&m0)
		res, err := ref.Refine(req)
		runtime.ReadMemStats(&m1)
		if ref.Stats().Reused > n {
			reused++
			reusedBytes += m1.TotalAlloc - m0.TotalAlloc
		} else {
			shipped++
			shippedBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		return res, err
	})
	cfg := loopConfig
	cfg.Refiner = measure
	_ = verifier.New(loopProg(t), cfg).Verify()
	if shipped != 1 || reused < 100 {
		t.Fatalf("%d refinements shipped, %d reused; want 1 and over 100", shipped, reused)
	}
	perHit := reusedBytes / reused
	t.Logf("shipped round %d B (proving included), memo hit %d B on average over %d", shippedBytes, perHit, reused)
	if perHit > memoHitMaxBytes {
		t.Errorf("a memo hit allocates %d B, bound %d", perHit, memoHitMaxBytes)
	}
}
