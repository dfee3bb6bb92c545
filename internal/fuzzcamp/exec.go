package fuzzcamp

import (
	"fmt"
	"math/rand"

	"bcf/internal/bcf"
	"bcf/internal/difftest"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// Oracle identifies which differential oracle reported a failure; it is
// half of a failure's dedup key.
type Oracle uint8

const (
	OracleDomain Oracle = iota + 1
	OracleAcceptSafe
	OracleAdversary
	// OracleCrash is synthetic: an oracle (and therefore the verifier or
	// interpreter under it) panicked instead of returning a verdict. A
	// crash is a soundness bug in its own right and is minimized and
	// promoted like any other violation.
	OracleCrash
)

// String returns the oracle's stable slug (metric labels, dedup keys,
// reproducer file names — do not reword).
func (o Oracle) String() string {
	switch o {
	case OracleDomain:
		return "domain"
	case OracleAcceptSafe:
		return "accept-safe"
	case OracleAdversary:
		return "adversary"
	case OracleCrash:
		return "crash"
	}
	return "unknown"
}

// ExecOptions configure how one work item runs through the oracles.
// They are campaign-wide (each WorkItem carries its own seed and
// adversary bit), so every pool worker runs every item the same way.
type ExecOptions struct {
	// Inputs is the number of randomized (ctx, maps) samples per oracle
	// (0 = 4).
	Inputs int
	// InsnLimit bounds each verifier run (0 = the difftest default).
	InsnLimit int
	// Sabotage deliberately weakens the verifier under test (sabotage
	// drills; nil in production campaigns).
	Sabotage *verifier.Sabotage
	// Remote, when non-nil, points the accept-implies-safe and adversary
	// loads at a remote proving backend (bcfd daemon or fleet).
	Remote loader.RemoteProver
}

// campaignLoaderOpts are the BCF-loader settings every campaign load —
// discovery and minimization alike — runs under. Mutated programs can be
// pathological for refinement (conditions whose CNFs and proofs explode),
// so the load carries tight, fully deterministic budgets: refinement
// rounds and boundary byte caps here, and the solver's one budget, which
// each condition's CNF sets, never wall-clock. A program that blows a
// budget is rejected identically on every worker and every machine,
// preserving the campaign's determinism contract; it is never a
// violation (budget exhaustion means "not accepted", and the oracles
// only police accepted programs).
//
// The caps are an order of magnitude above what legitimate generator
// programs need (conditions are small — the paper's average proof is
// ~541 bytes — and refinements converge in a handful of rounds). The
// solver budget is the one every other load proves under, so a program
// the campaign promotes is judged by the same prover as loader.Load
// judges it.
func campaignLoaderOpts(vcfg verifier.Config, remote loader.RemoteProver) loader.Options {
	return loader.Options{
		EnableBCF: true,
		Verifier:  vcfg,
		Remote:    remote,
		Session: bcf.SessionLimits{
			MaxRequests:   64,
			MaxCondBytes:  1 << 18,
			MaxProofBytes: 1 << 18,
		},
	}
}

// Failure is one oracle violation observed for a program.
type Failure struct {
	Oracle   Oracle
	ExecSeed int64 // seed that reproduces the violation
	Msg      string
}

// ExecResult is everything a worker reports for one item.
type ExecResult struct {
	Cov      Bitmap
	Accepted bool // the domain-oracle verifier accepted the program
	Failures []Failure
}

// Execute runs one program through the differential oracles with the
// coverage observer attached, entirely deterministically: equal
// (program, execSeed, adversary, opt) always produce equal results.
func Execute(p *ebpf.Program, execSeed int64, adversary bool, opt ExecOptions) *ExecResult {
	inputs := opt.Inputs
	if inputs <= 0 {
		inputs = 4
	}
	res := &ExecResult{}
	cov := NewCovObserver(&res.Cov)
	vcfg := verifier.Config{
		InsnLimit: opt.InsnLimit,
		Sabotage:  opt.Sabotage,
		Observer:  cov,
	}

	// A panicking oracle is itself a finding (OracleCrash), not a reason
	// to lose the worker: recover, report, keep running the others.
	run := func(o Oracle, fn func()) {
		defer func() {
			if r := recover(); r != nil {
				res.Failures = append(res.Failures,
					Failure{OracleCrash, execSeed, fmt.Sprintf("%s oracle panicked: %v", o, r)})
			}
		}()
		fn()
	}

	// Oracle 1: domain soundness (exhaustive path enumeration, concrete
	// trace containment).
	run(OracleDomain, func() {
		accepted, dv := difftest.CheckDomain(p, vcfg, inputs, execSeed)
		res.Accepted = accepted
		if dv != nil {
			res.Failures = append(res.Failures, Failure{OracleDomain, execSeed, dv.String()})
		}
	})

	// Oracle 2: accept-implies-safe through the BCF loader (remote
	// proving when configured; transport failures fall back in-process,
	// so a dead daemon degrades throughput, never the verdict).
	run(OracleAcceptSafe, func() {
		lopts := campaignLoaderOpts(vcfg, opt.Remote)
		if _, av := difftest.CheckAcceptSafe(p, lopts, inputs, execSeed); av != nil {
			res.Failures = append(res.Failures, Failure{OracleAcceptSafe, execSeed, av.String()})
		}
	})

	// Oracle 3: checker adversary (mutated proofs must all be rejected).
	// Expensive — the campaign schedules it on a deterministic subset of
	// items.
	if adversary {
		run(OracleAdversary, func() {
			rng := rand.New(rand.NewSource(execSeed))
			aopts := campaignLoaderOpts(vcfg, opt.Remote)
			aopts.EnableBCF = false // CheckAdversary arms BCF itself
			_, viols := difftest.CheckAdversary(p, aopts, rng, nil)
			for _, v := range viols {
				res.Failures = append(res.Failures, Failure{OracleAdversary, execSeed, v.String()})
			}
		})
	}
	return res
}
