// Package bcf is the public API of BCF-Go, a reproduction of "Prove It
// to the Kernel: Precise Extension Analysis via Proof-Guided Abstraction
// Refinement" (SOSP 2025).
//
// It bundles an eBPF substrate (instruction set, assembler, interpreter),
// a kernel-style verifier (tnum + four interval domains, path-sensitive
// analysis), and the BCF machinery: on-demand abstraction refinement
// whose soundness is established by user-space proof search and
// kernel-space linear-time proof checking.
//
// Typical use:
//
//	prog := &bcf.Program{
//		Name:  "demo",
//		Type:  bcf.ProgTracepoint,
//		Insns: bcf.MustAssemble(src),
//		Maps:  []*bcf.MapSpec{...},
//	}
//	report := bcf.Verify(prog, bcf.WithBCF())
//	if report.Accepted { ... }
package bcf

import (
	"context"
	"time"

	"bcf/internal/bcf"
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// Re-exported substrate types. The aliases make the full functionality of
// the internal packages available through the public API.
type (
	// Program is a loadable eBPF program.
	Program = ebpf.Program
	// Instruction is one eBPF instruction.
	Instruction = ebpf.Instruction
	// MapSpec describes a map referenced by a program.
	MapSpec = ebpf.MapSpec
	// ProgType selects the program attach type (context layout).
	ProgType = ebpf.ProgType
	// Interp is the concrete interpreter (differential safety oracle).
	Interp = ebpf.Interp
	// Fault is a runtime safety violation detected by the interpreter.
	Fault = ebpf.Fault
	// ProofCache memoizes proofs across loads of the same program.
	ProofCache = loader.ProofCache
	// RemoteProver proves encoded refinement conditions out of process
	// (see WithRemoteProver; Fleet implements it).
	RemoteProver = loader.RemoteProver
	// Fleet is the remote proving client: it rendezvous-hashes the
	// obligation key space across one or more bcfd daemons and fails a
	// key over to the next backend on a transport fault, keeping the
	// failed backend out of the ranking for a short cooldown (see
	// NewRemoteFleet).
	Fleet = prooffleet.Fleet
	// FleetOptions configure NewRemoteFleet: endpoints, dial and
	// request timeouts, and telemetry. HedgeDelay is ignored.
	FleetOptions = prooffleet.Options
	// FleetStats snapshots a fleet's dispatch, failover and per-backend
	// down counters.
	FleetStats = prooffleet.Stats
	// VerifierStats are the analyzer's counters.
	VerifierStats = verifier.Stats
	// ErrClass buckets a rejection by root cause (see the Class*
	// constants); use errors.Is with the bcferr sentinels for matching.
	ErrClass = bcferr.Class
	// SessionLimits bound the kernel-side resources of one load session.
	SessionLimits = bcf.SessionLimits
	// Registry is the telemetry metrics registry (counters, gauges,
	// fixed-bucket histograms) threaded through a load by WithTelemetry.
	Registry = obs.Registry
	// Tracer records the span timeline of a load as Chrome trace-event
	// JSON (Perfetto-loadable).
	Tracer = obs.Tracer
)

// Error classes (§6.2-style rejection buckets plus protocol robustness).
const (
	ClassNone          = bcferr.ClassNone
	ClassUnsafe        = bcferr.ClassUnsafe
	ClassProofRejected = bcferr.ClassProofRejected
	ClassSolverTimeout = bcferr.ClassSolverTimeout
	ClassResourceLimit = bcferr.ClassResourceLimit
	ClassProtocol      = bcferr.ClassProtocol
)

// Program types.
const (
	ProgSocketFilter = ebpf.ProgSocketFilter
	ProgXDP          = ebpf.ProgXDP
	ProgTracepoint   = ebpf.ProgTracepoint
	ProgSchedCLS     = ebpf.ProgSchedCLS
	ProgCgroupSkb    = ebpf.ProgCgroupSkb
)

// Map types.
const (
	MapHash    = ebpf.MapHash
	MapArray   = ebpf.MapArray
	MapRingBuf = ebpf.MapRingBuf
)

// Assemble parses the textual assembly dialect into instructions.
func Assemble(src string) ([]Instruction, error) { return ebpf.Assemble(src) }

// MustAssemble is Assemble but panics on error.
func MustAssemble(src string) []Instruction { return ebpf.MustAssemble(src) }

// DecodeBytecode parses raw wire-format bytecode into instructions.
func DecodeBytecode(raw []byte) ([]Instruction, error) { return ebpf.DecodeProgram(raw) }

// EncodeBytecode serializes instructions to wire format.
func EncodeBytecode(insns []Instruction) []byte { return ebpf.EncodeProgram(insns) }

// Disassemble renders instructions as text.
func Disassemble(p *Program) string { return p.Disassemble() }

// NewInterp prepares the concrete interpreter for a program.
func NewInterp(p *Program, seed int64) *Interp { return ebpf.NewInterp(p, seed) }

// NewProofCache returns an empty proof cache (see WithProofCache).
func NewProofCache() *ProofCache { return loader.NewProofCache() }

// NewRegistry returns an empty telemetry registry (see WithTelemetry).
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns an empty span tracer (see WithTelemetry).
func NewTracer() *Tracer { return obs.NewTracer() }

// Report is the outcome of a Verify call.
type Report struct {
	// Accepted reports whether the program passed verification.
	Accepted bool
	// Err is the rejection reason when !Accepted.
	Err error
	// Class buckets Err by root cause (ClassNone when accepted).
	Class ErrClass
	// Stats are the verifier's counters.
	Stats VerifierStats
	// Refinements is the number of proof-checked refinements adopted.
	Refinements int
	// RefinementRequests is the number of conditions sent to user space.
	RefinementRequests int
	// ProofBytes and ConditionBytes total the wire traffic.
	ProofBytes, ConditionBytes int
	// KernelNanos/UserNanos split the analysis time (§6.3).
	KernelNanos, UserNanos int64
	// CacheHits counts proofs served from the cache.
	CacheHits int
	// RemoteProofs/RemoteFallbacks count obligations proven by the
	// remote daemon versus degraded to the in-process solver (see
	// WithRemoteProver).
	RemoteProofs, RemoteFallbacks int
	// Counterexample holds a violating assignment from the last failed
	// refinement condition, when one was found.
	Counterexample map[uint32]uint64
	// Log is the verifier debug log (WithDebug only).
	Log []string

	raw *loader.Result
}

// Option configures Verify.
type Option func(*loader.Options)

// WithBCF enables proof-guided abstraction refinement. Without it the
// verifier behaves like the baseline in-tree analyzer.
func WithBCF() Option {
	return func(o *loader.Options) { o.EnableBCF = true }
}

// WithInsnLimit overrides the one-million analyzed-instruction budget.
func WithInsnLimit(n int) Option {
	return func(o *loader.Options) { o.Verifier.InsnLimit = n }
}

// WithDebug records a verifier log into the report.
func WithDebug() Option {
	return func(o *loader.Options) { o.Verifier.Debug = true }
}

// WithoutPruning disables state pruning (ablation).
func WithoutPruning() Option {
	return func(o *loader.Options) { o.Verifier.NoPruning = true }
}

// WithProofCache reuses proofs across loads (the §7 load-time cache).
func WithProofCache(c *ProofCache) Option {
	return func(o *loader.Options) { o.ProofCache = c }
}

// WithRemoteProver proves refinement conditions through p — typically a
// Fleet (see NewRemoteFleet) talking to bcfd daemons — instead of the
// in-process solver. Transport failures (daemon down, timeout, corrupt
// reply) fall back to local proving transparently; authoritative remote
// answers (counterexamples, solver failures) are final. The kernel-side
// checker still validates every proof, so a misbehaving daemon can cause
// rejection or fallback but never an unsound accept.
func WithRemoteProver(p RemoteProver) Option {
	return func(o *loader.Options) { o.Remote = p }
}

// WithRemoteOnly disables the local fallback: a transport failure
// becomes a ClassProtocol rejection instead of an in-process solve.
// Useful for CI and tests that must not mask a dead daemon.
func WithRemoteOnly() Option {
	return func(o *loader.Options) { o.RemoteOnly = true }
}

// NewRemoteFleet builds the remote proving client over the given bcfd
// endpoints ("unix:/path" or "host:port"; one endpoint is a fleet of
// one). Close the fleet when done. Pass it to WithRemoteProver; the
// degradation ladder — failover to a replica, in-process fallback when
// the whole fleet is unreachable — is transparent, and the kernel-side
// checker still validates every proof, so no backend (however broken or
// malicious) can cause an unsound accept.
func NewRemoteFleet(opts FleetOptions) (*Fleet, error) {
	return prooffleet.New(opts)
}

// WithTelemetry threads a metrics registry and/or span tracer through
// every layer of the load (verifier, session, refiner, solver, loader).
// Either argument may be nil; a disabled layer costs only a nil check.
func WithTelemetry(reg *Registry, tr *Tracer) Option {
	return func(o *loader.Options) {
		o.Obs = reg
		o.Trace = tr
	}
}

// WithoutRewriteTier forces every proof through bit-blasting (ablation).
func WithoutRewriteTier() Option {
	return func(o *loader.Options) { o.Solver.DisableRewriteTier = true }
}

// WithSolverBudget bounds the SAT search in conflicts.
func WithSolverBudget(maxConflicts int64) Option {
	return func(o *loader.Options) { o.Solver.MaxConflicts = maxConflicts }
}

// WithoutBackwardAnalysis starts symbolic tracking at the path head
// instead of the dependency-closed suffix (ablation of §4).
func WithoutBackwardAnalysis() Option {
	return func(o *loader.Options) { o.DisableBackward = true }
}

// WithContext cancels the load when ctx is done (deadline or cancel).
func WithContext(ctx context.Context) Option {
	return func(o *loader.Options) { o.Context = ctx }
}

// WithLoadTimeout bounds the whole load; an expired load gives up at its
// next refinement round and the report is classified ClassSolverTimeout.
func WithLoadTimeout(d time.Duration) Option {
	return func(o *loader.Options) { o.LoadTimeout = d }
}

// WithProveTimeout bounds the prover on each individual condition.
func WithProveTimeout(d time.Duration) Option {
	return func(o *loader.Options) { o.ProveTimeout = d }
}

// WithSessionLimits overrides the kernel-side per-session resource
// budget: refinement requests (the round cap) and boundary bytes.
func WithSessionLimits(l SessionLimits) Option {
	return func(o *loader.Options) { o.Session = l }
}

// WithLoopInvariant supplies a precomputed loop fixpoint (the paper's §7
// extension): at instruction insn, register reg is declared to stay in
// [lo, hi]. The verifier validates the fixpoint in a single pass — loads
// whose state escapes the declared range are rejected — and loop bodies
// are analyzed once instead of being unrolled to the instruction budget.
func WithLoopInvariant(insn int, reg uint8, lo, hi uint64) Option {
	return func(o *loader.Options) {
		o.Verifier.LoopInvariants = append(o.Verifier.LoopInvariants, verifier.LoopInvariant{
			Insn: insn,
			Regs: []verifier.RegRange{{Reg: ebpf.Reg(reg), UMin: lo, UMax: hi}},
		})
	}
}

// Verify analyzes a program and returns a detailed report.
func Verify(prog *Program, opts ...Option) *Report {
	var lo loader.Options
	lo.Solver = solver.Options{}
	for _, o := range opts {
		o(&lo)
	}
	res := loader.Load(prog, lo)
	rep := &Report{
		Accepted:        res.Accepted,
		Err:             res.Err,
		Class:           res.ErrClass,
		Stats:           res.VerifierStats,
		KernelNanos:     res.KernelTime.Nanoseconds(),
		UserNanos:       res.UserTime.Nanoseconds(),
		CacheHits:       res.CacheHits,
		RemoteProofs:    res.RemoteProofs,
		RemoteFallbacks: res.RemoteFallbacks,
		Counterexample:  res.Counterexample,
		Log:             res.Log,
		raw:             res,
	}
	// Wire totals come from the session's per-round traffic ledger — the
	// single source of truth — not from re-summing refiner stats.
	rep.ConditionBytes = res.CondBytes
	rep.ProofBytes = res.ProofBytes
	if res.RefineStats != nil {
		rep.Refinements = res.RefineStats.Granted
		rep.RefinementRequests = len(res.RefineStats.Requests)
	}
	return rep
}

// RefinementDetail describes one refinement request for inspection and
// benchmarking.
type RefinementDetail struct {
	TrackLen   int
	CondBytes  int
	ProofBytes int
	CheckNanos int64
	UserNanos  int64
}

// RefinementDetails returns per-request details of the last Verify.
func (r *Report) RefinementDetails() []RefinementDetail {
	if r.raw == nil || r.raw.RefineStats == nil {
		return nil
	}
	out := make([]RefinementDetail, 0, len(r.raw.RefineStats.Requests))
	for _, q := range r.raw.RefineStats.Requests {
		out = append(out, RefinementDetail{
			TrackLen:   q.TrackLen,
			CondBytes:  q.CondBytes,
			ProofBytes: q.ProofBytes,
			CheckNanos: q.CheckDuration.Nanoseconds(),
			UserNanos:  q.UserDuration.Nanoseconds(),
		})
	}
	return out
}
