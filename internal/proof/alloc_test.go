package proof_test

import (
	"errors"
	"testing"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/corpus"
	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// bitblastRound is one corpus round the bit-blast tier proved: the
// condition the kernel holds and the proof bytes it receives.
type bitblastRound struct {
	cond  *expr.Expr
	proof []byte
}

// corpusBitblastRounds verifies every corpus program at the evaluation
// budget, proving each condition with solver.Prove at default options,
// and returns the rounds the bit-blast tier proved.
func corpusBitblastRounds(t *testing.T) []bitblastRound {
	t.Helper()
	var rounds []bitblastRound
	for _, e := range corpus.Generate() {
		prove := bcf.ProveFunc(func(condBytes []byte) ([]byte, error) {
			cond, err := bcfenc.DecodeCondition(condBytes)
			if err != nil {
				t.Fatalf("program %d: decoding condition: %v", e.Index, err)
			}
			out, err := solver.Prove(nil, cond.Cond, solver.Options{})
			if err != nil {
				return nil, err
			}
			if !out.Proven {
				return nil, errors.New("counterexample")
			}
			pb, err := bcfenc.EncodeProof(out.Proof)
			if err != nil {
				t.Fatalf("program %d: encoding proof: %v", e.Index, err)
			}
			if out.Tier == solver.TierBitblast {
				rounds = append(rounds, bitblastRound{cond: cond.Cond, proof: pb})
			}
			return pb, nil
		})
		v := verifier.New(e.Prog, verifier.Config{InsnLimit: 4000, Refiner: bcf.NewRefiner(prove)})
		_ = v.Verify() // the verdict does not matter here, only the rounds
	}
	return rounds
}

// TestCheckAllocsPerStep bounds what the kernel's side of a bit-blast
// round allocates per proof step: DecodeProof and Check, replayed over
// every proof the corpus's bit-blast tier produces. Decoding cuts every
// step's premises from one array, resolution dedupes with a stamp array
// and cuts resolvents from an arena, and a bit-blasting step is a view of
// the re-derived CNF, so the count per step is a fraction. A map or a
// slice per step put back on this path shows up as one or more per step.
// Measured: 0.67 allocations per step over the 224 proofs (21,883
// steps; Go 1.24, linux/amd64). A decoder and checker with a map per
// resolution step and a slice per step's premises read 3.20.
func TestCheckAllocsPerStep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const (
		bitblastProofs = 224 // of the 306 bit-blast conditions; the rest have counterexamples
		maxPerStep     = 1.0
	)
	rounds := corpusBitblastRounds(t)
	if len(rounds) != bitblastProofs {
		t.Fatalf("corpus produced %d bit-blast proofs, want %d", len(rounds), bitblastProofs)
	}
	var allocs float64
	steps := 0
	for i, rd := range rounds {
		p, err := bcfenc.DecodeProof(rd.proof)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		steps += len(p.Steps)
		allocs += testing.AllocsPerRun(3, func() {
			p, err := bcfenc.DecodeProof(rd.proof)
			if err == nil {
				err = proof.Check(rd.cond, p)
			}
			if err != nil {
				t.Fatalf("proof %d: %v", i, err)
			}
		})
	}
	perStep := allocs / float64(steps)
	t.Logf("%.0f allocations over %d proofs, %d steps: %.2f per step", allocs, len(rounds), steps, perStep)
	if perStep > maxPerStep {
		t.Errorf("DecodeProof and Check allocate %.2f times per proof step, bound %.1f", perStep, maxPerStep)
	}
}
