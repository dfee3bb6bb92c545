package proof_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// kernelWork replays the kernel's side of a round the way the refiner
// runs it: the proof decoded into the condition's table, then checked.
// It returns the work that took: the table's node operations while
// decoding plus CheckWork's units.
func kernelWork(t *testing.T, condBytes, proofBytes []byte, lim proof.Limits) (int, error) {
	t.Helper()
	cond := decodeCondition(t, condBytes)
	tab := cond.Table()
	w0 := tab.Work()
	p, err := bcfenc.DecodeProofIn(tab, proofBytes)
	if err != nil {
		t.Fatalf("decoding proof: %v", err)
	}
	decode := tab.Work() - w0
	work, err := proof.CheckWork(cond, p, lim)
	return decode + work, err
}

// perByte checks one input's work per proof byte against the bound and
// returns it.
func perByte(t *testing.T, what string, work, proofBytes int) float64 {
	t.Helper()
	r := float64(work) / float64(proofBytes)
	if r > proof.MaxWorkPerProofByte {
		t.Errorf("%s: %d work units for a %d-B proof, %.2f per byte, bound %v",
			what, work, proofBytes, r, proof.MaxWorkPerProofByte)
	}
	return r
}

// TestCheckWorkPerProofByte pins the §5 claim that checking is linear:
// the checker's work units per proof byte stay under one fixed bound on
// the corpus and on inputs built to be exponential for a checker that
// walks terms as trees.
func TestCheckWorkPerProofByte(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		worst := 0.0
		for tier, rounds := range corpusRounds(t) {
			for i, rd := range rounds {
				work, err := kernelWork(t, rd.cond, rd.proof, proof.DefaultLimits)
				if err != nil {
					t.Fatalf("%s proof %d rejected: %v", tier, i, err)
				}
				worst = max(worst, perByte(t, fmt.Sprintf("%s proof %d", tier, i), work, len(rd.proof)))
			}
		}
		t.Logf("worst: %.2f work units per proof byte", worst)
	})

	// Figure 2 with k doublings r5 += r5 of the masked input, cancelled
	// by r5 -= r5: the condition and proof hold a k-level DAG whose tree
	// has 2^k leaves.
	t.Run("doubled-figure2", func(t *testing.T) {
		worst := 0.0
		for k := 1; k <= 60; k++ {
			rounds := doubledFigure2Rounds(t, k)
			if len(rounds) != 1 {
				t.Fatalf("k=%d: %d rounds, want 1", k, len(rounds))
			}
			work, err := kernelWork(t, rounds[0].cond, rounds[0].proof, proof.DefaultLimits)
			if err != nil {
				t.Fatalf("k=%d: proof rejected: %v", k, err)
			}
			worst = max(worst, perByte(t, fmt.Sprintf("k=%d", k), work, len(rounds[0].proof)))
		}
		t.Logf("worst: %.2f work units per proof byte", worst)
	})

	// One eval step on a ground doubled term: the proof is a few hundred
	// bytes and the term's tree has 2^depth leaves. The proof ends
	// without a contradiction, so it is rejected, after evaluating.
	t.Run("eval-const-ground-dag", func(t *testing.T) {
		for _, depth := range []int{22, 60} {
			tab := expr.NewTable(0)
			g := tab.Const(1, 64)
			for i := 0; i < depth; i++ {
				g = tab.Add(g, g)
			}
			p := &proof.Proof{Steps: []proof.Step{
				{Rule: proof.RuleAssume},
				{Rule: proof.RuleEvalConst, Args: []*expr.Expr{g}},
			}}
			work, proofBytes, _ := encodedWork(t, fig2Cond(15), p, proof.DefaultLimits)
			r := perByte(t, fmt.Sprintf("depth %d", depth), work, proofBytes)
			t.Logf("depth %d: %d work units, %d-B proof, %.2f per byte", depth, work, proofBytes, r)
		}
	})

	// n steps that share one n-node argument.
	t.Run("shared-argument", func(t *testing.T) {
		for _, n := range []int{100, 1000, 4000} {
			// Built apart from the condition, which fig2Cond makes in a
			// table of its own.
			tab := expr.NewTable(0)
			arg := tab.Var(0, 64)
			for i := 0; i < n; i++ {
				arg = tab.Add(arg, tab.Const(uint64(i), 64))
			}
			p := &proof.Proof{Steps: make([]proof.Step, n)}
			for i := range p.Steps {
				p.Steps[i] = proof.Step{Rule: proof.RuleLemmaZeroUle, Args: []*expr.Expr{arg}}
			}
			work, proofBytes, _ := encodedWork(t, fig2Cond(15), p, proof.DefaultLimits)
			r := perByte(t, fmt.Sprintf("n=%d", n), work, proofBytes)
			t.Logf("n=%d: %d work units, %d-B proof, %.2f per byte", n, work, proofBytes, r)
		}
	})

	// n steps whose arguments are the n prefixes of one chain, with
	// MaxArgNodes between the arguments' distinct nodes and the table's,
	// so stage 1 counts the arguments. Counting each one apart is
	// quadratic in n; counting them together visits each node once.
	t.Run("prefix-chain", func(t *testing.T) {
		for _, n := range []int{1000, 4000, 16000} {
			// 32-bit, so no node is shared with the 64-bit condition:
			// the arguments have 2n-1 distinct nodes, the table 6 more.
			tab := expr.NewTable(0)
			arg := tab.Var(7, 32)
			p := &proof.Proof{Steps: make([]proof.Step, n)}
			for i := range p.Steps {
				if i > 0 {
					arg = tab.Add(arg, tab.Const(uint64(i), 32))
				}
				p.Steps[i] = proof.Step{Rule: proof.RuleLemmaZeroUle, Args: []*expr.Expr{arg}}
			}
			lim := proof.DefaultLimits
			lim.MaxArgNodes = 2*n - 1
			work, proofBytes, err := encodedWork(t, fig2Cond(15), p, lim)
			if err == nil || !strings.Contains(err.Error(), "does not conclude false") {
				t.Fatalf("n=%d: %v, want the arguments counted and the proof refused at stage 3", n, err)
			}
			r := perByte(t, fmt.Sprintf("n=%d", n), work, proofBytes)
			t.Logf("n=%d: %d work units, %d-B proof, %.2f per byte", n, work, proofBytes, r)
		}
	})
}

// encodedWork encodes cond and p and replays them through kernelWork,
// returning the work, the proof's size and the check's verdict.
func encodedWork(t *testing.T, cond *expr.Expr, p *proof.Proof, lim proof.Limits) (work, proofBytes int, err error) {
	t.Helper()
	cb, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bcfenc.EncodeProof(p)
	if err != nil {
		t.Fatal(err)
	}
	work, err = kernelWork(t, cb, pb, lim)
	return work, len(pb), err
}

// fig2Cond is the paper's Figure 2 refinement condition, in a new table.
func fig2Cond(hi uint64) *expr.Expr {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	return tab.Ule(tab.Add(m, tab.Sub(tab.Const(0xf, 64), m)), tab.Const(hi, 64))
}

// doubledFigure2 is Figure 2 with r5 = r2 doubled k times and cancelled
// (r5 -= r5) before it is added to the pointer, so the verifier's range
// for the offset is unbounded and one refinement carries the doubled
// term.
func doubledFigure2(k int) *ebpf.Program {
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
			r5 = r2
` + strings.Repeat("r5 += r5\n", k) + `
			r5 -= r5
			r1 += r5
			r1 += r2
			r3 = 0xf
			r3 -= r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
}

// doubledFigure2Rounds loads doubledFigure2(k), which must be accepted,
// and returns its proved rounds.
func doubledFigure2Rounds(t *testing.T, k int) []proofRound {
	t.Helper()
	var rounds []proofRound
	prove := bcf.ProveFunc(func(condBytes []byte) ([]byte, error) {
		cond, err := bcfenc.DecodeCondition(condBytes)
		if err != nil {
			return nil, err
		}
		out, err := solver.Prove(nil, cond.Cond, solver.Options{})
		if err != nil {
			return nil, err
		}
		if !out.Proven {
			return nil, errors.New("counterexample")
		}
		pb, err := bcfenc.EncodeProof(out.Proof)
		if err == nil {
			rounds = append(rounds, proofRound{cond: condBytes, proof: pb})
		}
		return pb, err
	})
	v := verifier.New(doubledFigure2(k), verifier.Config{InsnLimit: 4000, Refiner: bcf.NewRefiner(prove)})
	if err := v.Verify(); err != nil {
		t.Fatalf("k=%d: rejected: %v", k, err)
	}
	return rounds
}
