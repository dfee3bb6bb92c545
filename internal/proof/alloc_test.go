package proof_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/corpus"
	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// proofRound is one corpus round a prover tier proved: the condition
// the kernel holds and the proof bytes it receives.
type proofRound struct {
	cond  []byte
	proof []byte
}

var (
	corpusOnce   sync.Once
	corpusByTier map[solver.Tier][]proofRound
)

// corpusRounds verifies every corpus program at the evaluation budget,
// proving each condition with solver.Prove at default options, and
// returns the proved rounds by the tier that proved them. The tests of
// this package share one run.
func corpusRounds(t *testing.T) map[solver.Tier][]proofRound {
	t.Helper()
	corpusOnce.Do(func() { corpusByTier = proveCorpus(t) })
	return corpusByTier
}

func proveCorpus(t *testing.T) map[solver.Tier][]proofRound {
	rounds := map[solver.Tier][]proofRound{}
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
			rounds[out.Tier] = append(rounds[out.Tier], proofRound{cond: condBytes, proof: pb})
			return pb, nil
		})
		v := verifier.New(e.Prog, verifier.Config{InsnLimit: 4000, Refiner: bcf.NewRefiner(prove)})
		_ = v.Verify() // the verdict does not matter here, only the rounds
	}
	return rounds
}

// decodeCondition decodes a round's condition into a table of its own,
// standing in for the table the refiner builds the condition in.
func decodeCondition(t *testing.T, b []byte) *expr.Expr {
	t.Helper()
	c, err := bcfenc.DecodeCondition(b)
	if err != nil {
		t.Fatal(err)
	}
	return c.Cond
}

// TestCheckAllocsPerStep bounds what the kernel's side of a round
// allocates per proof step: DecodeProofIn into the condition's table and
// Check, replayed over every proof the corpus's prover produces, each
// tier with its own bound. Each run starts from a freshly decoded
// condition, as each round starts from a freshly tracked one.
//
// Bit-blast proofs: decoding cuts every step's premises from one array,
// resolution dedupes with a stamp array and cuts resolvents from an
// arena, and a bit-blasting step is a view of the re-derived CNF, so the
// count per step is a fraction. A map or a slice per step put back on
// this path shows up as one or more per step. Measured: 0.45 allocations
// per step over the 224 proofs (21,883 steps; Go 1.24, linux/amd64). A
// decoder and checker with a map per resolution step and a slice per
// step's premises read 3.20.
//
// Rewrite-tier proofs: a proof's terms are hash-consed into the
// condition's table, which allocates its nodes in slabs and finds most
// arguments and conclusions already there. Measured: 0.56 per step over
// the 202 proofs (3,513 steps; same toolchain) of the conditions the
// kernel ships, each distinct within its load (0.74 over the 4,909
// proofs, 59,997 steps, when every repeat was shipped too); a node
// allocated per argument or conclusion again reads several per step (the
// map-keyed decoder and checker this replaced read 6.16).
func TestCheckAllocsPerStep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	rounds := corpusRounds(t)
	for _, tc := range []struct {
		tier       solver.Tier
		proofs     int
		maxPerStep float64
	}{
		{solver.TierBitblast, 224, 0.5}, // of the 306 bit-blast conditions; the rest have counterexamples
		{solver.TierRewrite, 202, 0.8},
	} {
		t.Run(tc.tier.String(), func(t *testing.T) {
			rounds := rounds[tc.tier]
			if len(rounds) != tc.proofs {
				t.Fatalf("corpus produced %d %s proofs, want %d", len(rounds), tc.tier, tc.proofs)
			}
			var allocs float64
			steps := 0
			for i, rd := range rounds {
				p, err := bcfenc.DecodeProof(rd.proof)
				if err != nil {
					t.Fatalf("proof %d: %v", i, err)
				}
				steps += len(p.Steps)
				// AllocsPerRun(3, f) calls f four times.
				var conds [4]*expr.Expr
				for k := range conds {
					conds[k] = decodeCondition(t, rd.cond)
				}
				run := 0
				allocs += testing.AllocsPerRun(3, func() {
					cond := conds[run]
					run++
					p, err := bcfenc.DecodeProofIn(cond.Table(), rd.proof)
					if err == nil {
						err = proof.Check(cond, p)
					}
					if err != nil {
						t.Fatalf("proof %d: %v", i, err)
					}
				})
			}
			perStep := allocs / float64(steps)
			t.Logf("%.0f allocations over %d proofs, %d steps: %.2f per step", allocs, len(rounds), steps, perStep)
			if perStep > tc.maxPerStep {
				t.Errorf("DecodeProof and Check allocate %.2f times per %s proof step, bound %.1f", perStep, tc.tier, tc.maxPerStep)
			}
		})
	}
}

// TestCheckBytesPerBitblastProof bounds the bytes Check allocates per
// bit-blast proof over the corpus, most of them the CNF it re-derives with
// the one-shot bitblast.Encode. That Encode is the prover's reusable
// encoder run once: it cuts bit vectors from a slab only after an
// earlier Encode has sized one, so a one-shot run allocates each vector
// on its own, and its Encoder stays on the stack. A slab sized up front
// for a warm prover would show up here as bytes every check pays for
// nothing. Measured: 20,887 B per check over the 224 proofs (Go 1.24,
// linux/amd64), the same as an encoder that allocates every vector on
// its own.
func TestCheckBytesPerBitblastProof(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const maxBytesPerCheck = 20_900
	rounds := corpusRounds(t)[solver.TierBitblast]
	var bytes uint64
	for i, rd := range rounds {
		cond := decodeCondition(t, rd.cond)
		p, err := bcfenc.DecodeProofIn(cond.Table(), rd.proof)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = proof.Check(cond, p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	perCheck := float64(bytes) / float64(len(rounds))
	t.Logf("%d B over %d checks: %.0f B per check", bytes, len(rounds), perCheck)
	if perCheck > maxBytesPerCheck {
		t.Errorf("Check allocates %.0f B per bit-blast proof, bound %d", perCheck, maxBytesPerCheck)
	}
}
