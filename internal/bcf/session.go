package bcf

import (
	"sync"
	"time"

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
// user space is trusted, including its liveness: a loader that stalls,
// crashes, or floods the kernel with traffic must not pin kernel memory
// or the verification goroutine (the in-kernel thread servicing the
// extended BPF_PROG_LOAD).
type SessionLimits struct {
	// MaxRequests caps refinement requests for one load (0 = default).
	MaxRequests int
	// MaxCondBytes caps the cumulative condition bytes shipped to user
	// space (0 = default).
	MaxCondBytes int
	// MaxProofBytes caps the cumulative proof bytes accepted from user
	// space (0 = default).
	MaxProofBytes int
	// ResumeTimeout is the session watchdog: if user space holds a
	// pending condition longer than this without resuming, the session
	// aborts itself and the verifier goroutine exits (0 = default;
	// negative = no watchdog).
	ResumeTimeout time.Duration
}

// DefaultSessionLimits are generous for every honest loader: the paper's
// heaviest program issues ~16k refinement requests with kilobyte-sized
// messages.
var DefaultSessionLimits = SessionLimits{
	MaxRequests:   1 << 16,
	MaxCondBytes:  1 << 28,
	MaxProofBytes: 1 << 28,
	ResumeTimeout: 2 * time.Minute,
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
	if l.ResumeTimeout == 0 {
		l.ResumeTimeout = DefaultSessionLimits.ResumeTimeout
	}
	return l
}

// Session emulates the kernel side of the extended BPF_PROG_LOAD
// protocol (§5 System Call): the load request runs until the verifier
// either finishes or emits a refinement condition into the shared buffer,
// at which point control returns to user space holding a handle (the
// paper's bcf_fd) used to resume with a proof. Only encoded bytes cross
// the boundary in either direction.
//
// A Session defends the kernel against a misbehaving peer: per-session
// resource accounting (SessionLimits) bounds requests and boundary
// traffic, and a watchdog aborts sessions whose user space never resumes,
// so the verification goroutine can never leak. A Session is not safe for
// concurrent use by multiple goroutines (neither is a real load).
//
// The protocol is a single conversation: one outstanding condition, one
// proof, strictly alternating. The verifier is one sequential walk, so
// its refinement requests never overlap.
type Session struct {
	prog *ebpf.Program
	v    *verifier.Verifier
	ref  *Refiner

	// Limits may be adjusted between NewSession and Load; zero fields
	// take defaults.
	Limits SessionLimits
	// Fault, when non-nil, intercepts boundary bytes (tests only).
	Fault FaultHook

	condCh    chan []byte
	respCh    chan proveResp
	doneCh    chan error
	abortCh   chan struct{}
	abortOnce sync.Once

	// Per-session accounting, touched only by the verification goroutine.
	// rounds is the single source of truth for boundary traffic: one
	// entry per refinement request, recording the bytes that actually
	// crossed the wire in each direction (after any fault-injection
	// mutation). Traffic() and the cumulative limit counters both derive
	// from it.
	requests   int
	condBytes  int
	proofBytes int
	rounds     []RoundTraffic

	// telemetry (nil = disabled). trace carries loader-side spans,
	// ktrace the verification-goroutine ("kernel thread") spans.
	obs    *obs.Registry
	trace  *obs.Tracer
	ktrace *obs.Tracer

	// open timeline segments (loader-side thread).
	spanKernel obs.Span
	spanUser   obs.Span

	// timing split for §6.3.
	kernelStart time.Time
	kernelTime  time.Duration
	userStart   time.Time
	userTime    time.Duration

	loaded   bool
	finished bool
	result   error
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

type proveResp struct {
	proof []byte
	err   error
}

var errSessionAborted = bcferr.New(bcferr.ClassProtocol, "bcf: session aborted")

// sessionService adapts the channel pump to the ProofService interface
// used by the Refiner inside the verification goroutine. It enforces the
// session's resource accounting and watchdog: every exit path returns,
// so the goroutine can always run to completion.
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
	var wireStart time.Time
	if s.obs != nil {
		wireStart = time.Now()
	}
	select {
	case s.condCh <- cond:
	case <-s.abortCh:
		return nil, errSessionAborted
	}
	if s.obs != nil {
		s.obs.StageHistogram(obs.MWireSeconds).Since(wireStart)
		s.obs.StageHistogram(obs.MCondBytes).Observe(float64(len(cond)))
	}
	if s.ktrace != nil {
		s.ktrace.Instant(obs.CatWire, "cond-out",
			map[string]any{"round": round, "bytes": len(cond)})
	}
	var watchdog <-chan time.Time
	if s.Limits.ResumeTimeout > 0 {
		t := time.NewTimer(s.Limits.ResumeTimeout)
		defer t.Stop()
		watchdog = t.C
	}
	select {
	case resp := <-s.respCh:
		pb := resp.proof
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
		return pb, resp.err
	case <-s.abortCh:
		return nil, errSessionAborted
	case <-watchdog:
		return nil, bcferr.New(bcferr.ClassProtocol,
			"bcf: session watchdog: no resume within %v", s.Limits.ResumeTimeout)
	}
}

// LoadResult describes the state of the session after Load or Resume.
type LoadResult struct {
	// Done reports whether verification concluded.
	Done bool
	// Err is the final verdict when Done (nil = accepted).
	Err error
	// Condition holds the refinement condition awaiting a user-space
	// proof when !Done (the paper's shared buffer, flag = proof request).
	Condition []byte
}

// NewSession prepares a load session for prog. Telemetry handles ride in
// on cfg (Obs, Trace): the verifier and refiner run on the verification
// goroutine and report under a "kernel" trace thread, while the
// session's own timeline segments stay on the caller's thread.
func NewSession(prog *ebpf.Program, cfg verifier.Config) *Session {
	s := &Session{
		prog:    prog,
		condCh:  make(chan []byte),
		respCh:  make(chan proveResp),
		doneCh:  make(chan error, 1),
		abortCh: make(chan struct{}),
	}
	s.obs = cfg.Obs
	s.trace = cfg.Trace
	if s.trace != nil {
		s.trace = s.trace.WithThread(0, "loader")
		s.ktrace = cfg.Trace.WithThread(1, "kernel")
		cfg.Trace = s.ktrace
	}
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

// KernelTime and UserTime report the time split of §6.3.
func (s *Session) KernelTime() time.Duration { return s.kernelTime }
func (s *Session) UserTime() time.Duration   { return s.userTime }

// Traffic reports the cumulative boundary traffic (valid once the
// session is done). It is derived from the per-round ledger, so it is
// always exactly the sum of the Rounds() wire sizes.
func (s *Session) Traffic() (condBytes, proofBytes int) {
	for _, rt := range s.rounds {
		condBytes += rt.CondBytes
		proofBytes += rt.ProofBytes
	}
	return condBytes, proofBytes
}

// Rounds returns the per-round wire-traffic ledger (valid once the
// session is done). The slice is a copy.
func (s *Session) Rounds() []RoundTraffic {
	return append([]RoundTraffic(nil), s.rounds...)
}

// Load starts verification and runs until the first refinement condition
// or completion. Loading twice is a protocol violation and reports an
// error without disturbing the running session.
func (s *Session) Load() LoadResult {
	if s.finished {
		return LoadResult{Done: true, Err: s.result}
	}
	if s.loaded {
		return LoadResult{Done: true, Err: bcferr.New(bcferr.ClassProtocol,
			"bcf: session already loaded")}
	}
	s.loaded = true
	s.Limits = s.Limits.withDefaults()
	s.kernelStart = time.Now()
	s.spanKernel = s.trace.Start(obs.CatSession, "kernel")
	go func() {
		s.doneCh <- s.v.Verify()
	}()
	return s.wait()
}

// Resume submits a user-space proof (or failure) and continues. If the
// session already concluded — including via watchdog or abort — the final
// verdict is reported and the proof is ignored.
func (s *Session) Resume(proofBytes []byte, userErr error) LoadResult {
	if s.finished {
		return LoadResult{Done: true, Err: s.result}
	}
	if !s.loaded {
		return LoadResult{Done: true, Err: bcferr.New(bcferr.ClassProtocol,
			"bcf: resume before load")}
	}
	s.userTime += time.Since(s.userStart)
	s.kernelStart = time.Now()
	s.spanUser.End()
	s.spanKernel = s.trace.Start(obs.CatSession, "kernel")
	var wireStart time.Time
	if s.obs != nil {
		wireStart = time.Now()
	}
	select {
	case s.respCh <- proveResp{proof: proofBytes, err: userErr}:
		if s.obs != nil {
			s.obs.StageHistogram(obs.MWireSeconds).Since(wireStart)
		}
		return s.wait()
	case err := <-s.doneCh:
		// The pump gave up (watchdog or limit) while we were away; the
		// verdict is already in.
		s.kernelTime += time.Since(s.kernelStart)
		s.spanKernel.End()
		s.finished = true
		s.result = err
		return LoadResult{Done: true, Err: err}
	}
}

func (s *Session) wait() LoadResult {
	select {
	case cond := <-s.condCh:
		s.kernelTime += time.Since(s.kernelStart)
		s.userStart = time.Now()
		s.spanKernel.End()
		s.spanUser = s.trace.Start(obs.CatSession, "user")
		return LoadResult{Condition: cond}
	case err := <-s.doneCh:
		s.kernelTime += time.Since(s.kernelStart)
		s.spanKernel.End()
		s.finished = true
		s.result = err
		return LoadResult{Done: true, Err: err}
	}
}

// Abort terminates an in-flight session: the pending (or next) refinement
// request fails with a protocol error, the verifier rejects, and the
// verification goroutine exits. Abort blocks until the goroutine has
// concluded, so no session resources outlive it. Aborting a finished or
// never-loaded session is a no-op.
func (s *Session) Abort() {
	if s.finished {
		return
	}
	if !s.loaded {
		s.finished = true
		s.result = errSessionAborted
		return
	}
	s.abortOnce.Do(func() { close(s.abortCh) })
	for {
		select {
		case <-s.condCh:
			// Drain a condition the pump managed to emit before observing
			// the abort; its Prove call will fail on the next select.
		case err := <-s.doneCh:
			s.finished = true
			s.result = err
			return
		}
	}
}
