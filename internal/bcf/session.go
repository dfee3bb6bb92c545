package bcf

import (
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/obs"
	"bcf/internal/verifier"
)

// FaultHook intercepts the byte streams at the kernel boundary (test
// instrumentation, e.g. internal/faultinject). A nil hook costs nothing.
type FaultHook interface {
	// CondOut may mutate the condition bytes leaving the kernel.
	CondOut(round int, b []byte) []byte
	// ProofIn may mutate the proof bytes entering the kernel, before the
	// decoder and checker see them.
	ProofIn(round int, b []byte) []byte
}

// SessionLimits bound what a single load session may consume. Nothing in
// user space is trusted: a loader that floods the kernel with requests or
// traffic must not pin kernel memory. Its liveness is bounded on the
// loader side (LoadTimeout, ProveTimeout); the session holds no goroutine
// that could outlive the load.
type SessionLimits struct {
	// MaxRequests caps refinement requests for one load (0 = default).
	MaxRequests int
	// MaxCondBytes caps the cumulative condition bytes shipped to user
	// space (0 = default).
	MaxCondBytes int
	// MaxProofBytes caps the cumulative proof bytes accepted from user
	// space (0 = default).
	MaxProofBytes int
}

// DefaultSessionLimits are generous for every honest loader: the paper's
// heaviest program issues ~16k refinement requests with kilobyte-sized
// messages.
var DefaultSessionLimits = SessionLimits{
	MaxRequests:   1 << 16,
	MaxCondBytes:  1 << 28,
	MaxProofBytes: 1 << 28,
}

func (l SessionLimits) withDefaults() SessionLimits {
	if l.MaxRequests == 0 {
		l.MaxRequests = DefaultSessionLimits.MaxRequests
	}
	if l.MaxCondBytes == 0 {
		l.MaxCondBytes = DefaultSessionLimits.MaxCondBytes
	}
	if l.MaxProofBytes == 0 {
		l.MaxProofBytes = DefaultSessionLimits.MaxProofBytes
	}
	return l
}

// Session emulates the kernel side of the extended BPF_PROG_LOAD
// protocol (§5 System Call). Run verifies the program on the calling
// goroutine; each refinement condition the verifier emits goes to user
// space as encoded bytes through a ProofService call, and the proof bytes
// it returns are decoded and re-checked before anything is adopted. The
// paper's suspend and resume of the load are that call and its return.
//
// A Session defends the kernel against a misbehaving peer with
// per-session resource accounting (SessionLimits) on requests and
// boundary traffic. A Session runs once and is not safe for concurrent
// use (neither is a real load).
type Session struct {
	v   *verifier.Verifier
	ref *Refiner

	// Limits may be adjusted between NewSession and Run; zero fields
	// take defaults.
	Limits SessionLimits
	// Fault, when non-nil, intercepts boundary bytes (tests only).
	Fault FaultHook

	user ProofService
	ran  bool

	// Per-session accounting. rounds is the single source of truth for
	// boundary traffic: one entry per refinement request, recording the
	// bytes that actually crossed in each direction (after any
	// fault-injection mutation). Traffic() and the cumulative limit
	// counters both derive from it.
	requests   int
	condBytes  int
	proofBytes int
	rounds     []RoundTraffic

	// telemetry (nil = disabled); ktrace is the "kernel" trace thread.
	obs    *obs.Registry
	ktrace *obs.Tracer
}

// RoundTraffic records the wire bytes of one refinement round: the
// condition shipped kernel→user and the proof (possibly empty) shipped
// back. It is what Session.Traffic sums, and the invariant
// condBytes+proofBytes == Σ per-round wire sizes is pinned by a
// regression test.
type RoundTraffic struct {
	CondBytes  int
	ProofBytes int
}

// sessionService is the ProofService the Refiner sees. It enforces the
// session's resource accounting around each call into user space.
type sessionService struct{ s *Session }

func (ss sessionService) Prove(cond []byte) ([]byte, error) {
	s := ss.s
	round := s.requests
	s.requests++
	if s.requests > s.Limits.MaxRequests {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d refinement requests", s.Limits.MaxRequests)
	}
	if s.Fault != nil {
		cond = s.Fault.CondOut(round, cond)
	}
	// Account the bytes that actually cross the boundary (post-fault):
	// the per-round record is the authoritative traffic ledger, and the
	// cumulative counters backing the limits are its running sums.
	s.rounds = append(s.rounds, RoundTraffic{CondBytes: len(cond)})
	s.condBytes += len(cond)
	if s.condBytes > s.Limits.MaxCondBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative condition bytes", s.Limits.MaxCondBytes)
	}
	if s.obs != nil {
		s.obs.StageHistogram(obs.MCondBytes).Observe(float64(len(cond)))
	}
	if s.ktrace != nil {
		s.ktrace.Instant(obs.CatWire, "cond-out",
			map[string]any{"round": round, "bytes": len(cond)})
	}
	pb, err := s.user.Prove(cond)
	if s.Fault != nil && pb != nil {
		pb = s.Fault.ProofIn(round, pb)
	}
	s.rounds[len(s.rounds)-1].ProofBytes = len(pb)
	s.proofBytes += len(pb)
	if s.obs != nil {
		s.obs.StageHistogram(obs.MProofBytes).Observe(float64(len(pb)))
	}
	if s.ktrace != nil {
		s.ktrace.Instant(obs.CatWire, "proof-in",
			map[string]any{"round": round, "bytes": len(pb)})
	}
	if s.proofBytes > s.Limits.MaxProofBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative proof bytes", s.Limits.MaxProofBytes)
	}
	return pb, err
}

// NewSession prepares a load session for prog. Telemetry handles ride in
// on cfg (Obs, Trace): the verifier and refiner report under a "kernel"
// trace thread (tid 1), and the caller's own track (tid 0) is labelled
// "loader".
func NewSession(prog *ebpf.Program, cfg verifier.Config) *Session {
	s := &Session{obs: cfg.Obs}
	cfg.Trace.WithThread(0, "loader") // emits the track's name; nil-safe
	s.ktrace = cfg.Trace.WithThread(1, "kernel")
	cfg.Trace = s.ktrace
	s.ref = NewRefiner(sessionService{s})
	s.ref.Obs = cfg.Obs
	s.ref.Trace = s.ktrace
	cfg.Refiner = s.ref
	s.v = verifier.New(prog, cfg)
	return s
}

// Refiner exposes the refinement statistics of this session.
func (s *Session) Refiner() *Refiner { return s.ref }

// Verifier exposes the underlying verifier (for stats and logs).
func (s *Session) Verifier() *verifier.Verifier { return s.v }

// Traffic reports the cumulative boundary traffic (valid once Run has
// returned). It is derived from the per-round ledger, so it is always
// exactly the sum of the Rounds() wire sizes.
func (s *Session) Traffic() (condBytes, proofBytes int) {
	for _, rt := range s.rounds {
		condBytes += rt.CondBytes
		proofBytes += rt.ProofBytes
	}
	return condBytes, proofBytes
}

// Rounds returns the per-round wire-traffic ledger (valid once Run has
// returned). The slice is a copy.
func (s *Session) Rounds() []RoundTraffic {
	return append([]RoundTraffic(nil), s.rounds...)
}

// Run verifies the program, calling user once per refinement condition,
// and returns the verdict (nil = accepted). A session runs once: a
// second Run, including one made from inside user, is a protocol
// violation and leaves the running session undisturbed.
func (s *Session) Run(user ProofService) error {
	if s.ran {
		return bcferr.New(bcferr.ClassProtocol, "bcf: session already loaded")
	}
	s.ran = true
	s.Limits = s.Limits.withDefaults()
	s.user = user
	return s.v.Verify()
}
