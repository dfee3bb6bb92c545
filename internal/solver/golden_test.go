package solver_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"testing"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/expr"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// corpusRun is what one pass of the corpus through the in-process prover
// produced.
type corpusRun struct {
	digest string // SHA-256 over every round and verdict, in corpus order
	rounds int
	// bitblast holds the conditions the bit-blast tier decided, in round
	// order.
	bitblast []*expr.Expr
}

// runCorpus verifies every corpus program at the evaluation budget with a
// refiner that proves each condition with a new solver.Prover (the
// one-shot solver.Prove) or, when shared is set, with one Prover kept
// for the whole corpus, as a warm ProveLocal proves. The digest covers
// each round's condition bytes followed by its proof bytes, its sorted
// counterexample or its error, and each program's verdict and Stats.
func runCorpus(t testing.TB, opts solver.Options, shared bool) corpusRun {
	t.Helper()
	h := sha256.New()
	var run corpusRun
	var warm solver.Prover
	for _, e := range corpus.Generate() {
		fmt.Fprintf(h, "program %d\n", e.Index)
		prove := bcf.ProveFunc(func(condBytes []byte) ([]byte, error) {
			run.rounds++
			writeBytes(h, "cond", condBytes)
			cond, err := bcfenc.DecodeCondition(condBytes)
			if err != nil {
				t.Fatalf("program %d: decoding condition: %v", e.Index, err)
			}
			p := &warm
			if !shared {
				p = new(solver.Prover)
			}
			out, err := p.Prove(nil, cond.Cond, opts)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				return nil, err
			}
			if out.Tier == solver.TierBitblast {
				run.bitblast = append(run.bitblast, cond.Cond)
			}
			if !out.Proven {
				ids := make([]uint32, 0, len(out.Counterexample))
				for id := range out.Counterexample {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				for _, id := range ids {
					fmt.Fprintf(h, "cex %d=%d\n", id, out.Counterexample[id])
				}
				return nil, errors.New("counterexample")
			}
			pb, err := bcfenc.EncodeProof(out.Proof)
			if err != nil {
				t.Fatalf("program %d: encoding proof: %v", e.Index, err)
			}
			writeBytes(h, "proof", pb)
			return pb, nil
		})
		v := verifier.New(e.Prog, verifier.Config{
			InsnLimit: 4000,
			Refiner:   bcf.NewRefiner(prove),
		})
		err := v.Verify()
		fmt.Fprintf(h, "verdict %v %s %v %+v\n", err == nil, bcferr.ClassOf(err), err, v.Stats())
	}
	run.digest = fmt.Sprintf("%x", h.Sum(nil))
	return run
}

func writeBytes(h hash.Hash, tag string, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write([]byte(tag))
	h.Write(n[:])
	h.Write(b)
}

// TestProofBytesGolden pins, byte for byte, what the prover hands the
// kernel over the whole corpus: every condition shipped (a repeat of one
// proven earlier in the same load is not), its proof or counterexample,
// and every verdict and Stats, once with the rewrite tier and once with
// every condition bit-blasted. A change to the SAT solver
// or the encoder that alters a search decision, a clause or a proof step
// moves a digest. Each digest is required twice: with a new Prover per
// round and with one Prover shared by every round, so state a Prover
// carries from one Prove into the next moves the shared digest.
func TestProofBytesGolden(t *testing.T) {
	const corpusRounds = 508 // TestCorpusP1StatsGolden's round total
	for _, tc := range []struct {
		name   string
		opts   solver.Options
		digest string
	}{
		{"rewrite-on", solver.Options{},
			"8a5486b68f6bb64257059d002385ed96a84c56a25fee16a7330f5171ea729781"},
		{"rewrite-off", solver.Options{DisableRewriteTier: true},
			"4b80d32fdd0290f2a9c8a84d23ed8388f3de85fd942feeb7e0dc1f1017ec3489"},
	} {
		check := func(t *testing.T, shared bool) {
			run := runCorpus(t, tc.opts, shared)
			if run.rounds != corpusRounds {
				t.Errorf("rounds = %d, want %d", run.rounds, corpusRounds)
			}
			if run.digest != tc.digest {
				t.Errorf("digest = %s, want %s (bit-blast rounds %d)", run.digest, tc.digest, len(run.bitblast))
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			check(t, false)
			t.Run("shared-prover", func(t *testing.T) { check(t, true) })
		})
	}
}
