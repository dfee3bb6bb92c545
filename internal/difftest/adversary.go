package difftest

import (
	"bytes"
	"fmt"
	"math/rand"

	"bcf/internal/bcfenc"
	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/loader"
	"bcf/internal/proof"
)

// CheckFn is the proof checker under adversarial test. Production use
// passes proof.Check; mutation tests pass deliberately broken checkers to
// prove the oracle notices.
type CheckFn func(cond *expr.Expr, p *proof.Proof) error

// AdversaryViolation reports a checker failure: an original
// (prover-emitted) proof rejected, or a mutated proof accepted.
type AdversaryViolation struct {
	Round  int
	Kind   string // "original-rejected" | "mutant-accepted"
	Mutant string // mutation description ("" for originals)
	Err    error  // rejection error for originals
}

func (v *AdversaryViolation) String() string {
	if v.Kind == "original-rejected" {
		return fmt.Sprintf("checker adversary: round %d original proof rejected: %v", v.Round, v.Err)
	}
	return fmt.Sprintf("checker adversary: round %d mutant accepted (%s)", v.Round, v.Mutant)
}

// AdversaryStats counts the adversary's work for vacuity checks.
type AdversaryStats struct {
	Rounds  int // (condition, proof) pairs captured
	Mutants int // mutants submitted to the checker
	Skipped int // semantic no-ops: identical re-encoding, or still a valid proof
}

// capturedRound is one kernel→user condition plus the user→kernel proof
// answering it.
type capturedRound struct {
	cond  []byte
	proof []byte
}

// captureHook records the protocol byte streams without perturbing them.
type captureHook struct {
	rounds []capturedRound
}

func (c *captureHook) round(n int) *capturedRound {
	for len(c.rounds) <= n {
		c.rounds = append(c.rounds, capturedRound{})
	}
	return &c.rounds[n]
}

func (c *captureHook) Condition(round int, b []byte) []byte {
	c.round(round).cond = append([]byte(nil), b...)
	return b
}

func (c *captureHook) Prove(round int) error { return nil }

func (c *captureHook) Proof(round int, b []byte) ([]byte, bool) {
	c.round(round).proof = append([]byte(nil), b...)
	return b, false
}

// CheckAdversary runs the checker-adversary oracle: load the program with
// BCF enabled, capture every (condition, proof) round the protocol
// carries, then (a) re-check each original proof — the checker must
// accept it — and (b) submit systematic mutations of it — the checker
// must reject every mutant that the reference checker rejects. Mutants
// whose wire encoding is identical to the original, mutants that fail to
// encode or decode (they can never reach the checker), and mutants that
// happen to still be valid proofs (accepting them is correct) are
// skipped.
func CheckAdversary(p *ebpf.Program, opts loader.Options, rng *rand.Rand, check CheckFn) (AdversaryStats, []AdversaryViolation) {
	var stats AdversaryStats
	var viols []AdversaryViolation
	if check == nil {
		check = proof.Check
	}
	hook := &captureHook{}
	opts.EnableBCF = true
	opts.Fault = hook
	opts.ProofCache = nil // cache hits would bypass the protocol capture
	loader.Load(p, opts)  // the verdict is irrelevant; the rounds matter

	type round struct {
		idx       int
		condBytes []byte
		cond      *expr.Expr
		p         *proof.Proof
	}
	// Rounds whose byte streams exceed the load's limits can never be
	// accepted by the kernel side — the refiner refuses the bytes before
	// the checker ever runs — so mutating them proves nothing and can be
	// arbitrarily expensive (a budget-blown prover emits proofs orders of
	// magnitude over the cap).
	lim := opts.Session.WithDefaults()

	var rounds []round
	for i := range hook.rounds {
		r := &hook.rounds[i]
		if r.cond == nil || r.proof == nil {
			continue
		}
		if len(r.cond) > lim.MaxCondBytes || len(r.proof) > lim.MaxProofBytes {
			continue
		}
		c, pr, err := decodeRound(r.cond, r.proof)
		if err != nil {
			continue
		}
		rounds = append(rounds, round{idx: i, condBytes: r.cond, cond: c, p: pr})
	}
	stats.Rounds = len(rounds)

	for ri, r := range rounds {
		if err := check(r.cond, r.p); err != nil {
			viols = append(viols, AdversaryViolation{Round: r.idx, Kind: "original-rejected", Err: err})
			continue
		}
		var others []*proof.Proof
		for rj := range rounds {
			if rj != ri {
				others = append(others, rounds[rj].p)
			}
		}
		origEnc, err := bcfenc.EncodeProof(r.p)
		if err != nil {
			continue
		}
		for _, m := range mutateProof(r.p, others, rng) {
			enc, err := bcfenc.EncodeProof(m.p)
			if err != nil {
				continue // unencodable: can never reach the kernel
			}
			if bytes.Equal(enc, origEnc) {
				stats.Skipped++
				continue
			}
			stats.Mutants++
			cond, pm, err := decodeRound(r.condBytes, enc)
			if err != nil {
				continue // the kernel decoder already rejects it
			}
			if check(cond, pm) != nil {
				continue // rejected, as a mutant should be
			}
			// The checker recomputes every conclusion, so a mutant can
			// remain a valid proof (a rotated premise hitting a duplicate
			// derivation, an edit to a step nothing depends on). Accepting
			// those is correct; the checker under test is convicted only
			// when it accepts a proof the reference checker rejects.
			if proof.Check(cond, pm) == nil {
				stats.Skipped++
				continue
			}
			viols = append(viols, AdversaryViolation{Round: r.idx, Kind: "mutant-accepted", Mutant: m.desc})
		}
	}
	return stats, viols
}

// decodeRound decodes a condition, then a proof into the condition's
// table, as the refiner does for each round. Checking adds its
// conclusions to that table, so every mutant gets a fresh pair rather
// than growing one round's table.
func decodeRound(condBytes, proofBytes []byte) (*expr.Expr, *proof.Proof, error) {
	c, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		return nil, nil, err
	}
	p, err := bcfenc.DecodeProofIn(c.Cond.Table(), proofBytes)
	return c.Cond, p, err
}

type mutant struct {
	desc string
	p    *proof.Proof
}

// cloneProof deep-copies the step list (premises and arg slices included;
// the expression nodes themselves are immutable and shared).
func cloneProof(p *proof.Proof) *proof.Proof {
	steps := make([]proof.Step, len(p.Steps))
	copy(steps, p.Steps)
	for i := range steps {
		steps[i].Premises = append([]uint32(nil), steps[i].Premises...)
		steps[i].Args = append([]*expr.Expr(nil), steps[i].Args...)
	}
	return &proof.Proof{Steps: steps}
}

// mutateProof derives the adversarial corpus for one proof: truncations,
// dropped steps, swapped rule IDs, perturbed premises, flipped resolution
// pivots, retargeted bit-blast clauses, dropped arguments and steps
// spliced in from proofs of other conditions.
func mutateProof(orig *proof.Proof, others []*proof.Proof, rng *rand.Rand) []mutant {
	n := len(orig.Steps)
	if n == 0 {
		return nil
	}
	var ms []mutant
	add := func(desc string, edit func(p *proof.Proof)) {
		m := cloneProof(orig)
		edit(m)
		ms = append(ms, mutant{desc: desc, p: m})
	}

	// Truncation: the proof no longer concludes false.
	add("truncate final step", func(p *proof.Proof) {
		p.Steps = p.Steps[:n-1]
	})

	// Drop an interior step; later premise indices now denote different
	// conclusions.
	if n >= 3 {
		i := 1 + rng.Intn(n-2)
		add(fmt.Sprintf("drop step %d", i), func(p *proof.Proof) {
			p.Steps = append(p.Steps[:i], p.Steps[i+1:]...)
		})
	}

	// Swap the rule IDs of two steps that use different rules.
	for try := 0; try < 8; try++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if orig.Steps[i].Rule != orig.Steps[j].Rule {
			add(fmt.Sprintf("swap rules of steps %d and %d", i, j), func(p *proof.Proof) {
				p.Steps[i].Rule, p.Steps[j].Rule = p.Steps[j].Rule, p.Steps[i].Rule
			})
			break
		}
	}

	// Rotate one rule ID to a neighbouring rule.
	{
		i := rng.Intn(n)
		add(fmt.Sprintf("bump rule of step %d", i), func(p *proof.Proof) {
			p.Steps[i].Rule++
		})
	}

	// Point a premise at a different (earlier) step.
	for try := 0; try < 8; try++ {
		i := rng.Intn(n)
		s := &orig.Steps[i]
		if len(s.Premises) > 0 && i > 1 {
			k := rng.Intn(len(s.Premises))
			add(fmt.Sprintf("rotate premise %d of step %d", k, i), func(p *proof.Proof) {
				p.Steps[i].Premises[k] = (p.Steps[i].Premises[k] + 1) % uint32(i)
			})
			break
		}
	}

	// Flip a resolution pivot (the stored analogue of a flipped literal).
	for i := range orig.Steps {
		if orig.Steps[i].Rule == proof.RuleResolve {
			add(fmt.Sprintf("flip pivot of step %d", i), func(p *proof.Proof) {
				if p.Steps[i].Pivot == 0 {
					p.Steps[i].Pivot = 1
				} else {
					p.Steps[i].Pivot = -p.Steps[i].Pivot
				}
			})
			break
		}
	}

	// Retarget a bit-blast clause reference.
	for i := range orig.Steps {
		if orig.Steps[i].Rule == proof.RuleBitblastClause {
			add(fmt.Sprintf("bump clause index of step %d", i), func(p *proof.Proof) {
				p.Steps[i].ClauseIdx++
			})
			break
		}
	}

	// Drop the last expression argument of a step that has one.
	for try := 0; try < 8; try++ {
		i := rng.Intn(n)
		if len(orig.Steps[i].Args) > 0 {
			add(fmt.Sprintf("drop an argument of step %d", i), func(p *proof.Proof) {
				p.Steps[i].Args = p.Steps[i].Args[:len(p.Steps[i].Args)-1]
			})
			break
		}
	}

	// Splice a step from a proof of a different condition.
	if len(others) > 0 {
		o := others[rng.Intn(len(others))]
		if len(o.Steps) > 0 {
			i := rng.Intn(n)
			j := rng.Intn(len(o.Steps))
			add(fmt.Sprintf("splice foreign step %d over step %d", j, i), func(p *proof.Proof) {
				s := o.Steps[j]
				s.Premises = append([]uint32(nil), s.Premises...)
				s.Args = append([]*expr.Expr(nil), s.Args...)
				// Keep premise indices in range for the host proof so the
				// mutant survives the format stage and stresses rule
				// application itself.
				for k := range s.Premises {
					if i > 0 {
						s.Premises[k] %= uint32(i)
					} else {
						s.Premises = nil
						break
					}
				}
				p.Steps[i] = s
			})
		}
	}

	return ms
}
