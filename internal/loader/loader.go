// Package loader implements the user-space side of BCF: the bpftool /
// libbpf analog that loads a program, receives refinement conditions from
// the kernel, translates them for the solver, and submits proofs back
// until the load concludes (§5 Loader and Solver).
//
// The protocol loop is hardened against a slow or failing prover and a
// hostile environment: the whole load and each individual condition run
// under deadlines, the refiner's limits cap refinement rounds, the
// solver searches each condition under one deterministic budget that
// the condition's own CNF sets (a search that exhausts it fails as a
// solver timeout, with no retry), and every failure carries a
// bcferr.Class so callers can bucket outcomes (§6.2).
package loader

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/obs"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

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

	// Obs and Trace, when non-nil, receive the load's telemetry:
	// per-stage latency histograms, outcome counters, the span timeline
	// and flight-recorder entries. The user-space layers (loader, cache,
	// remote client, solver) report as they run; the kernel side reports
	// nothing, and Load derives its metrics, its spans (tid 1, "kernel")
	// and its journal entries from the verifier's and the refiner's Stats
	// once the verdict is in. Nil — the default — costs only a nil check.
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
	// Rounds counts protocol round-trips driven by this load: one per
	// condition shipped.
	Rounds int
	// Reused counts refinements the kernel granted without a round trip,
	// their condition having been proven earlier in the load.
	Reused int
	// Wall-clock split.
	KernelTime time.Duration
	UserTime   time.Duration
	TotalTime  time.Duration
	// Boundary traffic totals, the refiner's record of the bytes that
	// crossed (bcf.Stats; zero when BCF is disabled).
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
// deadlines and the refiner's limits bound every path.
func Load(prog *ebpf.Program, opts Options) *Result {
	startAll := time.Now()
	res := &Result{}
	reg := opts.Obs
	reg.Counter(obs.MLoadsTotal).Inc()
	lsp := opts.Trace.Start(obs.CatLoad, "load")

	cfg := opts.Verifier
	var user *userSpace
	var ref *bcf.Refiner
	if opts.EnableBCF {
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
		user = &userSpace{ctx: ctx, opts: opts, res: res}
		ref = bcf.NewRefiner(user)
		ref.Limits = opts.Session
		ref.DisableBackward = opts.DisableBackward
		cfg.Refiner = ref
	}
	v := verifier.New(prog, cfg)
	runStart := time.Now()
	res.Err = v.Verify()
	runTime := time.Since(runStart)
	if user != nil && user.cause != nil {
		res.Err = user.cause
	}
	res.Accepted = res.Err == nil
	res.classify()
	res.VerifierStats = v.Stats()
	if ref == nil {
		res.KernelTime = time.Since(startAll)
		res.TotalTime = res.KernelTime
	} else {
		st := ref.Stats()
		res.RefineStats = st
		res.Reused = st.Reused
		// One clock for the §6.3 split: the refiner times every call into
		// user space, and the kernel side is the rest of the run.
		res.UserTime = st.UserTime
		res.KernelTime = runTime - res.UserTime
		res.TotalTime = time.Since(startAll)
		res.CondBytes, res.ProofBytes = st.CondBytes, st.ProofBytes
	}

	kernelTelemetry(reg, opts.Trace, runStart, runTime, res)
	lsp.End()
	if reg == nil {
		return res
	}
	reg.StageHistogram(obs.MLoadSeconds).ObserveDuration(res.TotalTime)
	reg.StageHistogram(obs.MKernelSeconds).ObserveDuration(res.KernelTime)
	reg.StageHistogram(obs.MUserSeconds).ObserveDuration(res.UserTime)
	if res.Accepted {
		reg.Counter(obs.MLoadsAccepted).Inc()
		return res
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
	return res
}

// userSpace is the loader's half of one BCF load: the bcf.ProofService
// the refiner calls with each condition. cause is a loader-side reason
// to give up on the load; it supersedes the verifier's verdict.
type userSpace struct {
	ctx   context.Context
	opts  Options
	res   *Result
	cause error
}

func (u *userSpace) Prove(condBytes []byte) ([]byte, error) {
	fault, round := u.opts.Fault, u.res.Rounds
	u.res.Rounds++
	if err := u.ctx.Err(); err != nil {
		u.cause = bcferr.Wrap(bcferr.ClassSolverTimeout,
			fmt.Errorf("loader: load deadline: %w", err))
		return nil, u.cause
	}
	var proofBytes []byte
	var err error
	if fault != nil {
		condBytes = fault.Condition(round, condBytes)
		err = fault.Prove(round)
	}
	if err == nil {
		proofBytes, err = prove(u.ctx, condBytes, &u.opts, u.res)
	}
	if fault != nil {
		var drop bool
		if proofBytes, drop = fault.Proof(round, proofBytes); drop {
			u.cause = bcferr.New(bcferr.ClassProtocol,
				"loader: resume dropped (session abandoned)")
			return nil, u.cause
		}
	}
	return proofBytes, err
}

// kernelTelemetry reports the kernel side of a finished load from its
// record: the verifier run that started at start and took dur, its
// Stats, and the refiner's Stats. It records the verifier and
// refinement metrics, one refine-round journal entry per granted
// request, and the "kernel" track (tid 1 of tr): a verify span and each
// request's spans (refineSpans); the verify span carries the count and
// time of the reused refinements.
func kernelTelemetry(reg *obs.Registry, tr *obs.Tracer, start time.Time, dur time.Duration, res *Result) {
	if reg == nil && tr == nil {
		return
	}
	vs := res.VerifierStats
	reg.StageHistogram(obs.MVerifySeconds).ObserveDuration(dur)
	reg.Counter(obs.MInsnsProcessed).Add(int64(vs.InsnProcessed))
	reg.Counter(obs.MPathsExplored).Add(int64(vs.PathsExplored))
	reg.Counter(obs.MStatesPruned).Add(int64(vs.StatesPruned))
	tr.WithThread(0, "loader") // emits the track's name; nil-safe
	kt := tr.WithThread(1, "kernel")
	st := res.RefineStats
	var args map[string]any // reused refinements get no spans of their own
	if kt != nil && st != nil && st.Reused > 0 {
		args = map[string]any{"reused": st.Reused, "reused_us": float64(st.ReusedTime) / 1e3}
	}
	kt.Complete(obs.CatVerifier, "verify", start, start.Add(dur), args)
	if st == nil {
		return
	}
	// A counter series exists only once it has counted something.
	if n := st.Granted + st.Failed; n > 0 {
		reg.Counter(obs.MRefineRequests).Add(int64(n))
	}
	if st.Granted > 0 {
		reg.Counter(obs.MRefinementsGranted).Add(int64(st.Granted))
	}
	if st.Failed > 0 {
		reg.Counter(obs.MRefinementsFailed).Add(int64(st.Failed))
	}
	if st.Reused > 0 {
		reg.Counter(obs.MRefinementsReused).Add(int64(st.Reused))
	}
	reqs := st.Requests
	if st.Unshipped != nil {
		reqs = append(reqs[:len(reqs):len(reqs)], *st.Unshipped)
	}
	journal := reg.Journal()
	for i, q := range reqs {
		reg.StageHistogram(obs.MTrackSeconds).ObserveDuration(q.TrackDuration)
		if kt != nil {
			refineSpans(kt, i, q)
		}
		if q.CondBytes == 0 {
			continue // failed before its condition was shipped
		}
		reg.StageHistogram(obs.MEncodeSeconds).ObserveDuration(q.EncodeDuration)
		reg.StageHistogram(obs.MRoundSeconds).ObserveDuration(q.UserDuration)
		reg.StageHistogram(obs.MCondBytes).Observe(float64(q.CondBytes))
		reg.StageHistogram(obs.MProofBytes).Observe(float64(q.ProofBytes))
		if q.CheckDuration > 0 {
			reg.StageHistogram(obs.MCheckSeconds).ObserveDuration(q.CheckDuration)
		}
		if q.Granted && journal != nil {
			journal.Recordf(obs.JKindRefine, "refiner", int64(i),
				"round %d: %s at insn %d granted", i, q.Kind, q.Insn)
		}
	}
}

// refineSpans records one refinement request on the kernel track: a
// refine span holding track, and for a shipped condition encode, round
// (with the wire sizes) and check. The request records durations, not
// stage start times, so track starts with the request and the later
// stages are laid end to end back from its end, the order they ran in.
func refineSpans(kt *obs.Tracer, round int, q bcf.RequestStats) {
	end := q.Start.Add(q.Duration)
	kt.Complete(obs.CatRefine, "refine", q.Start, end,
		map[string]any{"round": round, "insn": q.Insn, "kind": q.Kind.String()})
	kt.Complete(obs.CatRefine, "track", q.Start, q.Start.Add(q.TrackDuration), nil)
	if q.CondBytes == 0 {
		return
	}
	if q.CheckDuration > 0 {
		kt.Complete(obs.CatCheck, "check", end.Add(-q.CheckDuration), end, nil)
		end = end.Add(-q.CheckDuration)
	}
	kt.Complete(obs.CatRefine, "round", end.Add(-q.UserDuration), end,
		map[string]any{"cond_bytes": q.CondBytes, "proof_bytes": q.ProofBytes})
	end = end.Add(-q.UserDuration)
	kt.Complete(obs.CatRefine, "encode", end.Add(-q.EncodeDuration), end, nil)
}

// prove resolves one condition: cache (with singleflight), then the
// remote service when configured, then the in-process solver. It counts
// a cache hit in res and keeps a counterexample there.
func prove(ctx context.Context, condBytes []byte, opts *Options, res *Result) ([]byte, error) {
	var p []byte
	var hit, shared bool
	var err error
	if opts.ProofCache != nil {
		p, hit, shared, err = opts.ProofCache.GetOrCompute(condBytes, func() ([]byte, error) {
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
	} else {
		p, err = proveUncached(ctx, condBytes, opts, res)
	}
	if err != nil {
		if cex := bcferr.CounterexampleOf(err); cex != nil {
			res.Counterexample = cex
		}
		return nil, err
	}
	if hit || shared {
		res.CacheHits++
	}
	return p, nil
}

// proveUncached resolves one obligation without consulting the cache.
// With a remote prover configured, the obligation travels over the wire
// first; only transport-level failures (bcferr.ErrRemoteUnavailable)
// degrade to the in-process solver — a counterexample or solver failure
// reported by the daemon is the authoritative outcome.
func proveUncached(ctx context.Context, condBytes []byte, opts *Options, res *Result) ([]byte, error) {
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
	return ProveLocal(ctx, condBytes, opts)
}

// provers holds the Provers ProveLocal proves with. Every load and
// every proofd connection in the process shares them, and the collector
// drops the ones left idle.
var provers = sync.Pool{New: func() any { return new(solver.Prover) }}

// ProveLocal proves one encoded condition with the in-process solver
// under opts.ProveTimeout, for the loader and the proofd daemon alike. It
// takes a solver.Prover from a pool shared by both and puts it back once
// the proof is encoded. The solver's budget is set by the condition
// alone, so a search that exhausts it fails the same way on every
// machine and is not retried. opts is only read.
func ProveLocal(ctx context.Context, condBytes []byte, opts *Options) ([]byte, error) {
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
	p := provers.Get().(*solver.Prover)
	defer provers.Put(p)
	out, err := p.Prove(ctx, cond.Cond, sopts)
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
