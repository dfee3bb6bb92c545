package verifier_test

import (
	"fmt"
	"strings"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// corpusP1Golden pins the exploration of the whole corpus with BCF on:
// per-family sums of every verifier.Stats field, the protocol rounds (one
// per shipped condition), the refinements granted without a round trip
// (a condition already proven in the same load), and the accept count, at
// the corpus evaluation budget. Each load is one sequential DFS on the
// caller's goroutine, so every column here is deterministic.
const corpusP1Golden = `family             loads accepted    insns  paths pruned  peak  refined attempts rounds reused recorded
split-access          97       97     2108    194      0    97       97       97     97      0       97
helper-size           80       80     2235    240      0   160       80       80     80      0      160
unreachable-path      72       72     1722    288      0   216       72       72     72      0      144
reg-alias             82       82     1822    246      0   164       82       82     82      0      164
shift-compare         72       72     1574    216      0   144       72       72     72      0       72
subreg-spill          82        0     1553     82      0    82        0       82     82      0        0
loop                  23        0    92000   4743      0  4743     4730     4730     23   4707     9473
uninstrumented         4        0       16      4      0     4        0        4      0      0        0
total                512      403   103030   6013      0  5610     5133     5219    508   4707    10110
`

func TestCorpusP1StatsGolden(t *testing.T) {
	type sums struct {
		loads, accepted, rounds, reused int
		st                              verifier.Stats
	}
	var order []corpus.Family
	byFamily := map[corpus.Family]*sums{}
	var total sums
	add := func(s *sums, res *loader.Result) {
		s.loads++
		if res.Accepted {
			s.accepted++
		}
		s.rounds += res.Rounds
		s.reused += res.Reused
		st := res.VerifierStats
		s.st.InsnProcessed += st.InsnProcessed
		s.st.PathsExplored += st.PathsExplored
		s.st.StatesPruned += st.StatesPruned
		s.st.PeakStackDepth += st.PeakStackDepth
		s.st.Refinements += st.Refinements
		s.st.RefineAttempts += st.RefineAttempts
		s.st.StatesRecorded += st.StatesRecorded
	}
	for _, e := range corpus.Generate() {
		res := loader.Load(e.Prog, loader.Options{
			EnableBCF: true,
			Verifier:  verifier.Config{InsnLimit: 4000, ParallelPaths: 1},
		})
		s, ok := byFamily[e.Family]
		if !ok {
			s = &sums{}
			byFamily[e.Family] = s
			order = append(order, e.Family)
		}
		add(s, res)
		add(&total, res)
	}
	var b strings.Builder
	row := func(name string, s *sums) {
		fmt.Fprintf(&b, "%-18s %5d %8d %8d %6d %6d %5d %8d %8d %6d %6d %8d\n", name, s.loads, s.accepted,
			s.st.InsnProcessed, s.st.PathsExplored, s.st.StatesPruned, s.st.PeakStackDepth,
			s.st.Refinements, s.st.RefineAttempts, s.rounds, s.reused, s.st.StatesRecorded)
	}
	fmt.Fprintf(&b, "%-18s %5s %8s %8s %6s %6s %5s %8s %8s %6s %6s %8s\n", "family", "loads", "accepted",
		"insns", "paths", "pruned", "peak", "refined", "attempts", "rounds", "reused", "recorded")
	for _, f := range order {
		row(f.String(), byFamily[f])
	}
	row("total", &total)
	if got := b.String(); got != corpusP1Golden {
		t.Fatalf("corpus stats drifted:\n--- got ---\n%s--- want ---\n%s", got, corpusP1Golden)
	}
}
