package verifier_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/difftest"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// explorationDigest pins the abstract state at every step of the
// exploration, not just its totals: any change to the walk's state
// handling (forks, backtracking, pruning, refinement) that moves one
// register bound at one step on one path of any program below moves it.
const explorationDigest = "e9adda8cae389ee3"

// digestObserver hashes every instruction event in DFS order: the
// event's parent (so the tree's shape is pinned too), its pc, and the
// whole state on arrival.
type digestObserver struct {
	h     hash.Hash
	steps int
	buf   []byte
}

func (o *digestObserver) Observe(parent any, ev verifier.Event) any {
	if ev.Kind != verifier.EventInsn {
		return nil
	}
	pc, st := ev.PC, ev.State
	p := -1
	if parent != nil {
		p = parent.(int)
	}
	b := o.buf[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(p))
	b = binary.LittleEndian.AppendUint32(b, uint32(pc))
	for i := range st.Regs {
		b = appendReg(b, &st.Regs[i])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Stack)))
	for i := range st.Stack {
		b = append(b, byte(st.Stack[i].Kind))
		b = appendReg(b, &st.Stack[i].Spill)
	}
	b = binary.LittleEndian.AppendUint32(b, st.PktRange)
	o.h.Write(b)
	o.buf = b
	o.steps++
	return o.steps - 1
}

func appendReg(b []byte, r *verifier.RegState) []byte {
	b = append(b, byte(r.Type))
	for _, x := range []uint64{uint64(uint32(r.Off)), uint64(uint32(r.MapIdx)), uint64(r.ID),
		r.Var.Value, r.Var.Mask, r.UMin, r.UMax, uint64(r.SMin), uint64(r.SMax),
		uint64(r.U32Min), uint64(r.U32Max), uint64(uint32(r.S32Min)), uint64(uint32(r.S32Max))} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// digestOutcome folds one load's verdict, error text and Stats into h.
func digestOutcome(h hash.Hash, name string, err error, st verifier.Stats) {
	msg := "accepted"
	if err != nil {
		msg = err.Error()
	}
	fmt.Fprintf(h, "%s|%s|%+v\n", name, msg, st)
}

// TestExplorationDigest hashes the verdict, error text, Stats and every
// instruction event of: the generated programs of difftest seeds 0-1999
// (the ones that exercise pruning), the corpus with BCF on, the
// path-explosion fan-out ParallelStress(8, 96, 0), and the 24-rung
// diamond ladder of TestExplorationStatsPinned, each with pruning on and
// off.
func TestExplorationDigest(t *testing.T) {
	if verifier.RaceEnabled {
		// 1.4M hashed steps take ~45 s under the race detector; the walk
		// runs on one goroutine, and CI's determinism step runs this test
		// without it.
		t.Skip("too slow under the race detector")
	}
	h := sha256.New()
	obs := &digestObserver{h: h}
	var pruned int
	for _, noPrune := range []bool{false, true} {
		cfg := verifier.Config{NoPruning: noPrune, Observer: obs}
		for seed := int64(0); seed < 2000; seed++ {
			v := verifier.New(difftest.NewGen(seed).Generate(), cfg)
			err := v.Verify()
			digestOutcome(h, fmt.Sprintf("gen-%d", seed), err, v.Stats())
			pruned += v.Stats().StatesPruned
		}
		ladder := ebpf.MustAssemble("r6 = r1\nr0 = 0\n" + strings.Repeat(
			"r2 = *(u32 *)(r6 +0)\nif r2 == 0 goto +1\nr0 += 0\n", 24) + "exit\n")
		for _, p := range []*ebpf.Program{corpus.ParallelStress(8, 96, 0),
			{Name: "ladder", Type: ebpf.ProgTracepoint, Insns: ladder}} {
			v := verifier.New(p, cfg)
			err := v.Verify()
			digestOutcome(h, p.Name, err, v.Stats())
		}
		bcfCfg := cfg
		bcfCfg.InsnLimit = 4000
		for _, e := range corpus.Generate() {
			res := loader.Load(e.Prog, loader.Options{EnableBCF: true, Verifier: bcfCfg})
			digestOutcome(h, e.Prog.Name, res.Err, res.VerifierStats)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))[:16]
	t.Logf("%d observed steps, %d generated-program prunes with pruning on", obs.steps, pruned)
	if got != explorationDigest {
		t.Fatalf("exploration digest %s, want %s", got, explorationDigest)
	}
}
