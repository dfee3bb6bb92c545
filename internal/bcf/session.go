package bcf

import (
	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

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

	user ProofService
	ran  bool

	// Per-session accounting: the running totals the limits check.
	requests   int
	condBytes  int
	proofBytes int
}

// sessionService is the ProofService the Refiner sees. It enforces the
// session's resource accounting around each call into user space.
type sessionService struct{ s *Session }

func (ss sessionService) Prove(cond []byte) ([]byte, error) {
	s := ss.s
	s.requests++
	if s.requests > s.Limits.MaxRequests {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d refinement requests", s.Limits.MaxRequests)
	}
	s.condBytes += len(cond)
	if s.condBytes > s.Limits.MaxCondBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative condition bytes", s.Limits.MaxCondBytes)
	}
	pb, err := s.user.Prove(cond)
	s.proofBytes += len(pb)
	if s.proofBytes > s.Limits.MaxProofBytes {
		return nil, bcferr.New(bcferr.ClassResourceLimit,
			"bcf: session exceeded %d cumulative proof bytes", s.Limits.MaxProofBytes)
	}
	return pb, err
}

// NewSession prepares a load session for prog. The session reports
// nothing itself: the verifier's and the refiner's Stats are the record
// of the load.
func NewSession(prog *ebpf.Program, cfg verifier.Config) *Session {
	s := &Session{}
	s.ref = NewRefiner(sessionService{s})
	cfg.Refiner = s.ref
	s.v = verifier.New(prog, cfg)
	return s
}

// Refiner exposes the refinement statistics of this session.
func (s *Session) Refiner() *Refiner { return s.ref }

// Verifier exposes the underlying verifier (for stats and logs).
func (s *Session) Verifier() *verifier.Verifier { return s.v }

// Traffic reports the cumulative boundary traffic (valid once Run has
// returned): the running totals the session limits are checked against.
func (s *Session) Traffic() (condBytes, proofBytes int) {
	return s.condBytes, s.proofBytes
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
