package bcf

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
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

// longSuffixProg is sessionProg with n jumps to the next instruction
// between the lookup and the access: the tracked suffix, and with it the
// memo key, grows by n steps while the condition stays the same.
func longSuffixProg(n int) *ebpf.Program {
	var jumps strings.Builder
	for i := range n {
		fmt.Fprintf(&jumps, "\tgoto j%d\nj%d:\n", i, i)
	}
	prog := sessionProg()
	prog.Insns = ebpf.MustAssemble(`
		r1 = map[0]
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		if r0 == 0 goto miss
	` + jumps.String() + `
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
	`)
	return prog
}

// TestMemoKeysWithinMaxCondBytes pins the memo's memory bound: the kept
// keys total at most Limits.MaxCondBytes. Each request is asked twice;
// under the default limit the repeat is reused, and under a limit that
// admits two shipped conditions but not the suffix's key it is granted
// all the same, by shipping again.
func TestMemoKeysWithinMaxCondBytes(t *testing.T) {
	prog := longSuffixProg(300)
	run := func(limit int) *Refiner {
		calls := 0
		ref := NewRefiner(counted(t, &calls))
		ref.Limits.MaxCondBytes = limit
		v := verifier.New(prog, verifier.Config{Refiner: refinerFunc(
			func(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
				if _, err := ref.Refine(req); err != nil {
					t.Fatalf("first ask: %v", err)
				}
				return ref.Refine(req)
			})})
		if err := v.Verify(); err != nil {
			t.Fatalf("limit %d: rejected: %v", limit, err)
		}
		if ref.keyBytes > ref.Limits.WithDefaults().MaxCondBytes {
			t.Fatalf("limit %d: the memo keeps %d key bytes", limit, ref.keyBytes)
		}
		return ref
	}
	st := run(0).Stats()
	if len(st.Requests) != 1 || st.Reused != 1 {
		t.Fatalf("default limit: %d shipped, %d reused; want 1 and 1", len(st.Requests), st.Reused)
	}
	condLen, keyLen := st.CondBytes, len(run(0).key)
	t.Logf("a %d-step suffix: %d-byte key, %d-byte condition", st.Requests[0].TrackLen, keyLen, condLen)
	if keyLen <= 2*condLen {
		t.Fatalf("a %d-byte key is not longer than two %d-byte conditions", keyLen, condLen)
	}
	ref := run(2 * condLen)
	if st := ref.Stats(); len(st.Requests) != 2 || st.Reused != 0 || st.Granted != 2 || len(ref.proven) != 0 {
		t.Fatalf("limit %d: %d shipped, %d reused, %d granted, %d kept; want 2, 0, 2, 0",
			2*condLen, len(st.Requests), st.Reused, st.Granted, len(ref.proven))
	}
}

// memoHitMaxBytes bounds the bytes one refinement granted from the memo
// allocates. Measured: 32 B on average over the loop program's 209 hits
// (Go 1.24, linux/amd64), the RefineResult alone; keying the memo on the
// encoded condition, so that every hit tracked and encoded first, read
// 2,656 B, and tracking alone allocates more than this bound.
const memoHitMaxBytes = 256

// TestMemoHitBytes bounds what a refinement granted from the memo
// allocates: nothing for tracking, encoding, a proof, its decode or its
// check.
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
