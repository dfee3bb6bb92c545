package bcf_test

import (
	"bytes"
	"context"
	"testing"

	"bcf/internal/bcf"
	"bcf/internal/corpus"
	"bcf/internal/difftest"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

type refinerFunc func(*verifier.RefineRequest) (*verifier.RefineResult, error)

func (f refinerFunc) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	return f(req)
}

// memoAudit follows one load's refinements: the condition each memo key
// was first proven with, and every condition proven so far.
type memoAudit struct {
	first  map[string][]byte
	proven map[string]bool
}

// memoCounts totals what the audit saw over many loads.
type memoCounts struct {
	hits, proven int
	// encodingOnly counts proven conditions whose key missed although
	// the same condition was proven earlier in the load: the repeats an
	// encoding-keyed memo would have granted and the key does not.
	encodingOnly int
}

// auditProofBytes caps each audited load's proof bytes. The solver's
// budget ends every search, but the checker holds every resolvent of a
// bit-blast proof: the 3.4-MB proof difftest seed 1844 ships takes it
// past a gigabyte. Seeds 653, 1454, 1844 and 1924 each ship a proof
// over the cap and fail that refinement, the same way on every machine;
// no corpus load comes near it.
const auditProofBytes = 1 << 20

// auditLoad verifies prog with an honest refiner, and on every memo hit
// tracks and encodes the request again (bcf.MemoKeyAndCondition) and
// requires the bytes proven under that key first.
func auditLoad(t *testing.T, prog *ebpf.Program, cfg verifier.Config, n *memoCounts) {
	t.Helper()
	var shipped []byte
	ref := bcf.NewRefiner(bcf.ProveFunc(func(cond []byte) ([]byte, error) {
		shipped = bytes.Clone(cond)
		return loader.ProveLocal(context.Background(), cond, &loader.Options{})
	}))
	ref.Limits.MaxProofBytes = auditProofBytes
	a := memoAudit{first: map[string][]byte{}, proven: map[string]bool{}}
	cfg.Refiner = refinerFunc(func(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
		key, cond := bcf.MemoKeyAndCondition(req)
		key = bytes.Clone(key)
		reused, shipped0 := ref.Stats().Reused, len(ref.Stats().Requests)
		shipped = nil
		res, err := ref.Refine(req)
		switch {
		case ref.Stats().Reused > reused:
			n.hits++
			if first, ok := a.first[string(key)]; !ok || !bytes.Equal(cond, first) {
				t.Errorf("%s, insn %d: a memo hit tracks to a condition of %d bytes, its key was first proven with %d",
					prog.Name, req.InsnIdx, len(cond), len(first))
			}
		case err == nil && len(ref.Stats().Requests) > shipped0:
			n.proven++
			if !bytes.Equal(cond, shipped) {
				t.Errorf("%s, insn %d: the refiner shipped other bytes than a fresh tracking encodes", prog.Name, req.InsnIdx)
			}
			if a.proven[string(cond)] {
				n.encodingOnly++
			}
			a.first[string(key)], a.proven[string(cond)] = cond, true
		}
		return res, err
	})
	_ = verifier.New(prog, cfg).Verify()
}

// takenOnly reaches one access along two paths whose steps differ only
// in a branch's direction: the branch jumps to the next instruction.
func takenOnly() *ebpf.Program {
	return memoProg("taken-only", `
		r1 = map[0]
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		if r0 == 0 goto miss
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		if r6 > 3 goto next
	next:
		r7 = 0xf
		r7 -= r6
		r1 = r0
		r1 += r6
		r1 += r7
		r0 = *(u8 *)(r1 +0)
		exit
	miss:
		r0 = 0
		exit
	`)
}

// wantHiOnly reaches one access, with the same tracked suffix, into a
// 16-byte and an 8-byte map value: the requests differ only in WantHi.
func wantHiOnly() *ebpf.Program {
	return memoProg("want-hi-only", `
		call 7
		if r0 == 0 goto small
		r1 = map[0]
		goto lookup
	small:
		r1 = map[1]
	lookup:
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		if r0 == 0 goto miss
		r6 = *(u64 *)(r0 +0)
		r6 &= 0x1f
		r7 = 7
		r7 -= r6
		r1 = r0
		r1 += r6
		r1 += r7
		r0 = *(u8 *)(r1 +0)
		exit
	miss:
		r0 = 0
		exit
	`)
}

func memoProg(name, src string) *ebpf.Program {
	return &ebpf.Program{
		Name: name,
		Type: ebpf.ProgTracepoint,
		Maps: []*ebpf.MapSpec{
			{Name: "big", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 1},
			{Name: "small", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
		},
		Insns: ebpf.MustAssemble(src),
	}
}

// TestMemoKeyDeterminesCondition checks the memo key against the
// conditions it stands for: over the corpus, difftest seeds 0-1999 and
// two programs whose requests differ only in a branch direction or only
// in WantHi, every hit tracks and encodes to the bytes its key was first
// proven with, and no condition is proven twice in a load under two keys.
func TestMemoKeyDeterminesCondition(t *testing.T) {
	var n memoCounts
	for _, e := range corpus.Generate() {
		auditLoad(t, e.Prog, verifier.Config{InsnLimit: 4000}, &n)
	}
	corpusHits := n.hits
	seeds := 2000
	if testing.Short() || bcf.RaceEnabled {
		seeds = 200
	}
	for seed := range seeds {
		auditLoad(t, difftest.NewGen(int64(seed)).Generate(), verifier.Config{}, &n)
	}
	for _, prog := range []*ebpf.Program{takenOnly(), wantHiOnly()} {
		before := n.proven
		auditLoad(t, prog, verifier.Config{}, &n)
		if n.proven-before != 2 {
			t.Errorf("%s: %d conditions proven, want 2 (one per path)", prog.Name, n.proven-before)
		}
	}
	t.Logf("%d memo hits (%d on the corpus), %d conditions proven, %d encoding-only repeats",
		n.hits, corpusHits, n.proven, n.encodingOnly)
	if corpusHits != 4707 {
		t.Errorf("%d memo hits over the corpus, want its 4,707 reused refinements", corpusHits)
	}
	if n.encodingOnly != 0 {
		t.Errorf("%d conditions proven again under a second key", n.encodingOnly)
	}
}
