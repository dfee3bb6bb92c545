package verifier_test

import (
	"slices"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/difftest"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// pruneReplay replays a pruning table of one walk from the states its
// instruction events carry at prune points: each arrival is compared
// with the entries recorded at its pc, up to 64, and then recorded. It
// records every arrival the kernel's add rule would skip, and evicts
// none, so its comparisons are a superset of the walk's.
type pruneReplay struct {
	t       *testing.T
	name    string
	points  []bool
	entries map[int][]*verifier.PruneEntry
	// subsumed and failing count the comparisons statesSubsume passes
	// and fails, and refuted the failing ones the entry's key refutes.
	subsumed, failing, refuted int
}

func (r *pruneReplay) Observe(_ any, ev verifier.Event) any {
	pc, st := ev.PC, ev.State
	if ev.Kind != verifier.EventInsn || !r.points[pc] {
		return nil
	}
	for _, e := range r.entries[pc] {
		subsumes, admitted := e.Compare(st)
		switch {
		case subsumes:
			r.subsumed++
			if !admitted {
				r.t.Fatalf("%s pc %d: the key refutes a subsumed arrival", r.name, pc)
			}
		default:
			r.failing++
			if !admitted {
				r.refuted++
			}
		}
	}
	if len(r.entries[pc]) < 64 {
		c := *st
		c.Stack = slices.Clone(st.Stack)
		r.entries[pc] = append(r.entries[pc], verifier.RecordPruneEntry(&c))
	}
	return nil
}

func (r *pruneReplay) reset(name string, p *ebpf.Program) verifier.Config {
	r.name, r.points, r.entries = name, verifier.PrunePoints(p), map[int][]*verifier.PruneEntry{}
	return verifier.Config{Observer: r, NoPruning: true}
}

// TestPruneKeyOnRecordedStates checks the pruning table's key on the
// states real walks record: the corpus with BCF on, and the generated
// programs of difftest seeds 0-1999. The walks run with NoPruning, so
// the replay also sees the arrivals a table entry would prune. Whenever
// an entry subsumes an arrival its key admits it, and on the corpus,
// which prunes nothing, the key refutes at least 99% of the comparisons
// statesSubsume fails.
func TestPruneKeyOnRecordedStates(t *testing.T) {
	r := &pruneReplay{t: t}
	for _, e := range corpus.Generate() {
		cfg := r.reset(e.Prog.Name, e.Prog)
		cfg.InsnLimit = 4000
		loader.Load(e.Prog, loader.Options{EnableBCF: true, Verifier: cfg})
	}
	if r.failing == 0 || float64(r.refuted) < 0.99*float64(r.failing) {
		t.Errorf("corpus: the key refutes %d of %d failing comparisons, want at least 99%%", r.refuted, r.failing)
	}
	t.Logf("corpus: the key refutes %d of %d failing comparisons", r.refuted, r.failing)
	r.subsumed = 0
	for seed := int64(0); seed < 2000; seed++ {
		p := difftest.NewGen(seed).Generate()
		verifier.New(p, r.reset(p.Name, p)).Verify()
	}
	if r.subsumed == 0 {
		t.Error("no generated-program arrival is subsumed: the check is vacuous")
	}
	t.Logf("generated programs: %d subsumed arrivals", r.subsumed)
}
