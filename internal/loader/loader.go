// Package loader implements the user-space side of BCF: the bpftool /
// libbpf analog that loads a program, receives refinement conditions from
// the kernel, translates them for the solver, and submits proofs back
// until the load concludes (§5 Loader and Solver).
//
// The protocol loop is hardened against a slow or failing prover and a
// hostile environment: the whole load and each individual condition run
// under deadlines, the kernel session caps refinement rounds, a solver
// that exhausts its conflict budget gets exactly one escalation retry
// (straight to bit-blasting with a larger budget), and every failure
// carries a bcferr.Class so callers can bucket outcomes (§6.2).
package loader

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/obs"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// escalationBudgetFactor multiplies the SAT conflict budget on the single
// escalation retry after a budget exhaustion.
const escalationBudgetFactor = 4

// FaultHook intercepts the user-space protocol steps (test
// instrumentation, e.g. internal/faultinject). A nil hook costs nothing.
type FaultHook interface {
	// Condition may replace the condition bytes received from the kernel
	// before they are decoded.
	Condition(round int, b []byte) []byte
	// Prove runs before the solver; it may stall (testing deadlines) or
	// return an error reported as the prover's outcome.
	Prove(round int) error
	// Proof may replace the proof bytes submitted to the kernel;
	// drop=true abandons the load: no proof goes back and the load
	// fails with a protocol error.
	Proof(round int, b []byte) (out []byte, drop bool)
}

// RemoteProver proves a refinement condition out of process, working at
// the wire-format level: it receives the exact condition bytes the
// kernel emitted and returns encoded proof bytes ready for submission.
// prooffleet.Fleet implements it over one or more bcfd daemons. Errors matching
// bcferr.ErrRemoteUnavailable are transport failures (dead daemon,
// timeout, corrupt frame); everything else is an authoritative proving
// outcome, with counterexamples carried via bcferr.WithCounterexample.
type RemoteProver interface {
	ProveBytes(ctx context.Context, cond []byte) ([]byte, error)
}

// Options configure a load.
type Options struct {
	// EnableBCF turns on proof-guided refinement; false gives the
	// baseline in-tree verifier behaviour.
	EnableBCF bool
	// Solver options forwarded to the prover.
	Solver solver.Options
	// Verifier configuration (insn limit, debug log, pruning).
	Verifier verifier.Config
	// Session bounds the kernel-side resources of this load; its
	// MaxRequests is the cap on refinement rounds (zero fields take
	// bcf.DefaultSessionLimits).
	Session bcf.SessionLimits
	// ProofCache, when non-nil, is consulted before invoking the solver
	// and updated with fresh proofs (§7 Load Time: the verifier is
	// deterministic, so conditions repeat across loads byte-for-byte).
	ProofCache *ProofCache
	// DisableBackward makes symbolic tracking start at the path head
	// instead of the computed suffix (ablation of §4's backward analysis).
	DisableBackward bool

	// Remote, when non-nil, sends obligations to a remote proving service
	// instead of the in-process solver. Transport failures transparently
	// fall back to the in-process prover (a dead daemon degrades to
	// today's behavior) unless RemoteOnly is set. The ProofCache, when
	// also configured, layers in front of the remote call.
	Remote RemoteProver
	// RemoteOnly disables the in-process fallback: a transport failure
	// becomes the load's outcome (CI smoke tests that must not silently
	// mask a dead daemon).
	RemoteOnly bool

	// Context cancels the whole load when done (nil = Background).
	Context context.Context
	// LoadTimeout bounds the whole load, counted from Load entry
	// (0 = none beyond Context).
	LoadTimeout time.Duration
	// ProveTimeout bounds the prover on each individual condition
	// (0 = none beyond the whole-load deadline).
	ProveTimeout time.Duration
	// DisableEscalation turns off the budget-exhaustion retry.
	DisableEscalation bool

	// Obs and Trace, when non-nil, are threaded through every layer of
	// the load (verifier, session, refiner, solver): per-stage latency
	// histograms, outcome counters and the load/session span timeline.
	// Nil — the default — costs only a nil check on each hot path.
	Obs   *obs.Registry
	Trace *obs.Tracer

	// Fault injects protocol faults on the user-space side (tests only).
	Fault FaultHook
}

// Result reports the outcome and the measurements of a load.
type Result struct {
	Accepted bool
	Err      error
	// ErrClass buckets Err per the bcferr taxonomy. Accepted loads are
	// ClassNone; rejections with no embedded class default to ClassUnsafe
	// (the verifier turned the program down on safety grounds).
	ErrClass bcferr.Class

	// Verifier statistics.
	VerifierStats verifier.Stats
	// Refinement statistics (nil when BCF disabled).
	RefineStats *bcf.Stats
	// Rounds counts protocol round-trips driven by this load.
	Rounds int
	// Escalations counts solver escalation retries that ran.
	Escalations int
	// Wall-clock split.
	KernelTime time.Duration
	UserTime   time.Duration
	TotalTime  time.Duration
	// Boundary traffic totals, sourced from the session's per-round wire
	// ledger (the single source of truth; zero when BCF is disabled).
	CondBytes  int
	ProofBytes int
	// Counterexample from the last failed condition, if any.
	Counterexample map[uint32]uint64
	// Proof cache hits during this load.
	CacheHits int
	// RemoteProofs counts obligations proven by the remote service;
	// RemoteFallbacks counts transport failures that degraded to the
	// in-process prover.
	RemoteProofs    int
	RemoteFallbacks int
	// Log is the verifier debug log (Config.Debug only).
	Log []string
}

// classify fills ErrClass from Err.
func (r *Result) classify() {
	if r.Err == nil {
		r.ErrClass = bcferr.ClassNone
		return
	}
	if c := bcferr.ClassOf(r.Err); c != bcferr.ClassNone {
		r.ErrClass = c
		return
	}
	r.ErrClass = bcferr.ClassUnsafe
}

// Load verifies a program, driving the full BCF protocol when enabled.
// Everything runs on the calling goroutine: the verifier calls into the
// loader's prover for each refinement condition. Load always returns:
// deadlines and the kernel session's limits bound every path.
func Load(prog *ebpf.Program, opts Options) *Result {
	startAll := time.Now()
	res := &Result{}
	// Thread telemetry into the verifier config (and from there into the
	// session and refiner); an explicitly configured registry on the
	// verifier wins.
	vcfg := opts.Verifier
	if vcfg.Obs == nil {
		vcfg.Obs = opts.Obs
	}
	if vcfg.Trace == nil {
		vcfg.Trace = opts.Trace
	}
	reg := vcfg.Obs
	opts.Obs, opts.Trace = vcfg.Obs, vcfg.Trace
	reg.Counter(obs.MLoadsTotal).Inc()
	lsp := vcfg.Trace.Start(obs.CatLoad, "load")
	record := func() {
		lsp.End()
		if reg == nil {
			return
		}
		reg.StageHistogram(obs.MLoadSeconds).ObserveDuration(res.TotalTime)
		reg.StageHistogram(obs.MKernelSeconds).ObserveDuration(res.KernelTime)
		reg.StageHistogram(obs.MUserSeconds).ObserveDuration(res.UserTime)
		if res.Accepted {
			reg.Counter(obs.MLoadsAccepted).Inc()
			return
		}
		origin := "organic"
		if f, ok := opts.Fault.(interface{ FiredAny() bool }); ok && f.FiredAny() {
			origin = "injected"
		}
		reg.Counter(obs.Labels(obs.MLoadFailures,
			"class", res.ErrClass.String(), "origin", origin)).Inc()
		// Record every failed load; dump the recorder only for abnormal
		// failures (protocol breaches, timeouts, exhausted budgets) — an
		// ordinary safety rejection is a verdict, not a black-box event,
		// and evals reject programs by the hundred.
		if j := reg.Journal(); j != nil {
			j.Recordf(obs.JKindLoadFail, "loader", int64(res.Rounds),
				"load failed (%s): %v", res.ErrClass, res.Err)
			if res.ErrClass != bcferr.ClassUnsafe {
				j.Dump(os.Stderr)
			}
		}
	}
	if !opts.EnableBCF {
		v := verifier.New(prog, vcfg)
		err := v.Verify()
		res.Accepted = err == nil
		res.Err = err
		res.classify()
		res.VerifierStats = v.Stats()
		res.Log = v.Log()
		res.KernelTime = time.Since(startAll)
		res.TotalTime = res.KernelTime
		record()
		return res
	}

	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// Seed the context with the load span so downstream RPC spans (the
	// remote prover client) nest under this load in the trace timeline.
	ctx = obs.ContextWithSpan(ctx, lsp.Context())
	if opts.LoadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.LoadTimeout)
		defer cancel()
	}
	sess := bcf.NewSession(prog, vcfg)
	sess.Limits = opts.Session
	sess.Refiner().DisableBackward = opts.DisableBackward

	// cause is a loader-side reason to give up on the load; it supersedes
	// the verifier's verdict.
	var cause error
	user := bcf.ProveFunc(func(condBytes []byte) ([]byte, error) {
		round := res.Rounds
		res.Rounds++
		if err := ctx.Err(); err != nil {
			cause = bcferr.Wrap(bcferr.ClassSolverTimeout,
				fmt.Errorf("loader: load deadline: %w", err))
			return nil, cause
		}
		if opts.Fault != nil {
			condBytes = opts.Fault.Condition(round, condBytes)
		}

		var proofBytes []byte
		var perr error
		if opts.Fault != nil {
			perr = opts.Fault.Prove(round)
		}
		if perr == nil {
			var cex map[uint32]uint64
			var hit bool
			proofBytes, cex, hit, perr = prove(ctx, condBytes, opts, res)
			if hit {
				res.CacheHits++
			}
			if cex != nil {
				res.Counterexample = cex
			}
		}
		if opts.Fault != nil {
			var drop bool
			proofBytes, drop = opts.Fault.Proof(round, proofBytes)
			if drop {
				cause = bcferr.New(bcferr.ClassProtocol,
					"loader: resume dropped (session abandoned)")
				return nil, cause
			}
		}
		return proofBytes, perr
	})

	runStart := time.Now()
	res.Err = sess.Run(user)
	runTime := time.Since(runStart)
	if cause != nil {
		res.Err = cause
	}
	res.Accepted = res.Err == nil
	res.classify()
	res.VerifierStats = sess.Verifier().Stats()
	res.Log = sess.Verifier().Log()
	res.RefineStats = sess.Refiner().Stats()
	// One clock for the §6.3 split: the refiner times every call into
	// user space, and the kernel side is the rest of the run.
	res.UserTime = res.RefineStats.UserTime
	res.KernelTime = runTime - res.UserTime
	res.TotalTime = time.Since(startAll)
	res.CondBytes, res.ProofBytes = sess.Traffic()
	record()
	return res
}

// prove resolves one condition: cache (with singleflight), then the
// remote service when configured, then the in-process solver.
func prove(ctx context.Context, condBytes []byte, opts Options, res *Result) (proofBytes []byte, cex map[uint32]uint64, cacheHit bool, err error) {
	if opts.ProofCache != nil {
		p, hit, shared, err := opts.ProofCache.GetOrCompute(condBytes, func() ([]byte, error) {
			return proveUncached(ctx, condBytes, opts, res)
		})
		switch {
		case hit:
			opts.Obs.Counter(obs.MCacheHits).Inc()
		case shared:
			opts.Obs.Counter(obs.MCacheCoalesced).Inc()
		default:
			opts.Obs.Counter(obs.MCacheMisses).Inc()
		}
		if err != nil {
			return nil, bcferr.CounterexampleOf(err), false, err
		}
		return p, nil, hit || shared, nil
	}
	p, err := proveUncached(ctx, condBytes, opts, res)
	if err != nil {
		return nil, bcferr.CounterexampleOf(err), false, err
	}
	return p, nil, false, nil
}

// proveUncached resolves one obligation without consulting the cache.
// With a remote prover configured, the obligation travels over the wire
// first; only transport-level failures (bcferr.ErrRemoteUnavailable)
// degrade to the in-process solver — a counterexample or solver failure
// reported by the daemon is the authoritative outcome.
func proveUncached(ctx context.Context, condBytes []byte, opts Options, res *Result) ([]byte, error) {
	if opts.Remote != nil {
		out, rerr := opts.Remote.ProveBytes(ctx, condBytes)
		switch {
		case rerr == nil:
			res.RemoteProofs++
			opts.Obs.Counter(obs.MRemoteProofs).Inc()
			return out, nil
		case !errors.Is(rerr, bcferr.ErrRemoteUnavailable):
			return nil, rerr
		case opts.RemoteOnly:
			return nil, bcferr.Wrap(bcferr.ClassProtocol,
				fmt.Errorf("loader: remote prover: %w", rerr))
		case ctx.Err() != nil:
			return nil, bcferr.Wrap(bcferr.ClassSolverTimeout,
				fmt.Errorf("loader: load deadline: %w", ctx.Err()))
		default:
			res.RemoteFallbacks++
			opts.Obs.Counter(obs.MRemoteFallbacks).Inc()
			if j := opts.Obs.Journal(); j != nil {
				j.Recordf(obs.JKindFallback, "loader", int64(res.RemoteFallbacks),
					"remote transport failure, degrading to local solver: %v", rerr)
			}
		}
	}
	return proveLocal(ctx, condBytes, opts, res)
}

// proveLocal translates one condition and invokes the in-process solver
// under the per-condition deadline. A conflict-budget exhaustion is
// retried once, escalated straight to bit-blasting with a larger
// budget, provided the deadlines still have room.
func proveLocal(ctx context.Context, condBytes []byte, opts Options, res *Result) ([]byte, error) {
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol,
			fmt.Errorf("loader: bad condition from kernel: %w", err))
	}
	if opts.ProveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.ProveTimeout)
		defer cancel()
	}
	sopts := opts.Solver
	if sopts.Obs == nil {
		sopts.Obs = opts.Obs
	}
	if sopts.Trace == nil {
		sopts.Trace = opts.Trace
	}
	out, err := solver.Prove(ctx, cond.Cond, sopts)
	if err != nil && !opts.DisableEscalation &&
		bcferr.ClassOf(err) == bcferr.ClassSolverTimeout && ctx.Err() == nil {
		// Budget exhausted with wall-clock to spare: one escalation.
		esc := sopts
		esc.DisableRewriteTier = true
		if esc.MaxConflicts > 0 {
			esc.MaxConflicts *= escalationBudgetFactor
		}
		res.Escalations++
		opts.Obs.Counter(obs.MEscalations).Inc()
		out, err = solver.Prove(ctx, cond.Cond, esc)
	}
	if err != nil {
		return nil, fmt.Errorf("loader: solver: %w", err)
	}
	if !out.Proven {
		return nil, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"loader: condition violated (counterexample found)"), out.Counterexample)
	}
	buf, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol,
			fmt.Errorf("loader: encoding proof: %w", err))
	}
	return buf, nil
}
