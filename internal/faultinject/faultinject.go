// Package faultinject is a deterministic, seed-driven fault injector for
// the BCF kernel↔user protocol. It models every way an untrusted or
// broken user space (and a lossy boundary) can misbehave: corrupting or
// truncating the byte streams crossing the shared buffer, replaying a
// stale proof, stalling or crashing the prover, exhausting the SAT
// budget, and abandoning a session without resuming it.
//
// An Injector is armed with named injection points and a schedule of
// protocol rounds; the loader and the remote proving client expose small
// hook interfaces (loader.FaultHook, prooffleet.FaultHook) that an
// Injector satisfies. The hooks are nil by default and cost nothing when
// unset.
// All randomness (which byte to flip, where to truncate) derives from
// the seed, so a failing schedule replays exactly.
package faultinject

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/obs"
)

// Point names one injection site in the protocol.
type Point uint8

// Injection points.
const (
	// CondCorrupt flips one bit of the condition bytes leaving the kernel.
	CondCorrupt Point = iota
	// CondTruncate cuts the condition bytes short.
	CondTruncate
	// ProofCorrupt flips one bit of the proof bytes entering the kernel.
	ProofCorrupt
	// ProofTruncate cuts the proof bytes short.
	ProofTruncate
	// ProofReplay substitutes the proof from an earlier round.
	ProofReplay
	// ProverDelay stalls the prover (exercises the loader's deadlines).
	ProverDelay
	// ProverError makes the prover fail outright (a crashed process).
	ProverError
	// SATBudget simulates conflict-budget exhaustion in the SAT backend.
	SATBudget
	// DropResume abandons the load: the loader returns no proof for the
	// pending condition and gives up with a protocol error.
	DropResume
	// FleetFlap makes a fleet dispatch fail as if the backend bounced
	// (accepts, then dies mid-request). Fires for any backend.
	FleetFlap
	// FleetPartition makes a seeded subset of backends unreachable for
	// the scheduled dispatches (a network partition: some clients can
	// reach some daemons).
	FleetPartition
	// FleetSlow stalls a backend's reply (slow trickle; exercises request
	// deadlines).
	FleetSlow
	// FleetByzantine flips one bit of a backend's proof reply (a
	// compromised or buggy prover returning garbage).
	FleetByzantine
	// NumPoints is the number of injection points (for schedules).
	NumPoints
)

func (p Point) String() string {
	switch p {
	case CondCorrupt:
		return "cond-corrupt"
	case CondTruncate:
		return "cond-truncate"
	case ProofCorrupt:
		return "proof-corrupt"
	case ProofTruncate:
		return "proof-truncate"
	case ProofReplay:
		return "proof-replay"
	case ProverDelay:
		return "prover-delay"
	case ProverError:
		return "prover-error"
	case SATBudget:
		return "sat-budget"
	case DropResume:
		return "drop-resume"
	case FleetFlap:
		return "fleet-flap"
	case FleetPartition:
		return "fleet-partition"
	case FleetSlow:
		return "fleet-slow"
	case FleetByzantine:
		return "fleet-byzantine"
	}
	return "unknown"
}

// corruptingPoints are the points whose firing must force a rejection
// (they tamper with bytes crossing the trust boundary). The Fleet points
// are deliberately absent: a dropped, slow or byzantine remote reply is
// a transport fault the client degrades —
// failover to a replica or in-process fallback — so the load may still
// legitimately be accepted, on a fully checked proof.
var corruptingPoints = []Point{CondCorrupt, CondTruncate, ProofCorrupt, ProofTruncate, ProofReplay}

// Event records one fault actually injected.
type Event struct {
	Point  Point
	Round  int
	Detail string
}

// allRounds is the schedule key meaning "every round".
const allRounds = -1

// Injector injects faults at armed points. The zero value is not usable;
// construct with New or NewRandom.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sched  map[Point]map[int]bool
	delay  time.Duration
	prev   []byte // last pristine proof seen, for replay
	events []Event
	reg    *obs.Registry

	// partitionSalt lazily seeds the FleetPartition side assignment
	// (0 = not yet drawn).
	partitionSalt uint64
}

// New returns an injector with nothing armed. All byte-level choices
// (flip position, truncation point) are drawn from the seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		sched: map[Point]map[int]bool{},
		delay: 5 * time.Millisecond,
	}
}

// Arm schedules a point to fire at the given protocol rounds (0-based
// refinement-request index). With no rounds, the point fires every round.
func (in *Injector) Arm(p Point, rounds ...int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := in.sched[p]
	if m == nil {
		m = map[int]bool{}
		in.sched[p] = m
	}
	if len(rounds) == 0 {
		m[allRounds] = true
		return in
	}
	for _, r := range rounds {
		m[r] = true
	}
	return in
}

// SetDelay overrides the stall used by ProverDelay (default 5ms).
func (in *Injector) SetDelay(d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay = d
	return in
}

// WithRegistry wires the injector into a telemetry registry: every
// injected fault increments faultinject_fired_total{point="..."}, so
// chaos runs produce a per-point (and, combined with the loader's
// bcf_load_failures_total{class,origin} counters, per-error-class)
// breakdown instead of only log lines.
func (in *Injector) WithRegistry(reg *obs.Registry) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reg = reg
	return in
}

// FiredAny reports whether any fault has been injected so far. The
// loader uses it to attribute a failed load to an injected rather than
// organic cause.
func (in *Injector) FiredAny() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.events) > 0
}

// NewRandom derives a randomized fault schedule from the seed: between
// one and three points, each armed at a round in [0, rounds). The
// schedule is a pure function of the seed, so failures replay.
func NewRandom(seed int64, rounds int) *Injector {
	in := New(seed)
	if rounds < 1 {
		rounds = 1
	}
	n := 1 + in.rng.Intn(3)
	for i := 0; i < n; i++ {
		p := Point(in.rng.Intn(int(NumPoints)))
		in.Arm(p, in.rng.Intn(rounds))
	}
	return in
}

// Armed reports whether a point is scheduled at all.
func (in *Injector) Armed(p Point) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.sched[p]) > 0
}

// Events returns a copy of the faults injected so far.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Fired counts how often a point actually injected.
func (in *Injector) Fired(p Point) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, e := range in.events {
		if e.Point == p {
			n++
		}
	}
	return n
}

// CorruptionFired reports whether any byte-tampering point injected; a
// load where this holds must never be accepted.
func (in *Injector) CorruptionFired() bool {
	for _, p := range corruptingPoints {
		if in.Fired(p) > 0 {
			return true
		}
	}
	return false
}

// fires checks the schedule. Caller holds in.mu.
func (in *Injector) fires(p Point, round int) bool {
	m := in.sched[p]
	return m != nil && (m[allRounds] || m[round])
}

func (in *Injector) log(p Point, round int, detail string) {
	in.events = append(in.events, Event{Point: p, Round: round, Detail: detail})
	in.reg.Counter(obs.Label(obs.MFaultsInjected, "point", p.String())).Inc()
}

// flip returns b with one seeded bit flipped (b untouched; empty passes
// through). Caller holds in.mu.
func (in *Injector) flip(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	out[in.rng.Intn(len(out))] ^= 1 << uint(in.rng.Intn(8))
	return out
}

// cut returns a strict prefix of b (at least one byte removed). Caller
// holds in.mu.
func (in *Injector) cut(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return append([]byte(nil), b[:in.rng.Intn(len(b))]...)
}

// ---- loader.FaultHook ----

// Condition intercepts condition bytes on the user-space side, before
// decoding (a corruption in the shared buffer, kernel→user direction).
func (in *Injector) Condition(round int, b []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fires(CondCorrupt, round) {
		b = in.flip(b)
		in.log(CondCorrupt, round, "bit flipped")
	}
	if in.fires(CondTruncate, round) {
		b = in.cut(b)
		in.log(CondTruncate, round, "truncated")
	}
	return b
}

// Prove intercepts the prover invocation: it may stall (deadline fuel)
// or fail with a classified error before the solver runs.
func (in *Injector) Prove(round int) error {
	in.mu.Lock()
	delay := time.Duration(0)
	if in.fires(ProverDelay, round) {
		delay = in.delay
		in.log(ProverDelay, round, delay.String())
	}
	var err error
	switch {
	case in.fires(ProverError, round):
		in.log(ProverError, round, "prover crashed")
		err = bcferr.New(bcferr.ClassProtocol, "faultinject: prover error (injected)")
	case in.fires(SATBudget, round):
		in.log(SATBudget, round, "budget exhausted")
		err = bcferr.New(bcferr.ClassSolverTimeout, "faultinject: sat conflict budget exhausted (injected)")
	}
	in.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// Proof intercepts proof bytes before they are submitted to the kernel.
// drop=true means no proof is returned at all (abandoned session).
func (in *Injector) Proof(round int, b []byte) (out []byte, drop bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fires(DropResume, round) {
		in.log(DropResume, round, "resume dropped")
		return nil, true
	}
	pristine := append([]byte(nil), b...)
	if in.fires(ProofReplay, round) {
		if in.prev != nil && !bytes.Equal(in.prev, b) {
			b = append([]byte(nil), in.prev...)
			in.log(ProofReplay, round, "stale proof substituted")
		}
	}
	if in.fires(ProofCorrupt, round) {
		b = in.flip(b)
		in.log(ProofCorrupt, round, "bit flipped")
	}
	if in.fires(ProofTruncate, round) {
		b = in.cut(b)
		in.log(ProofTruncate, round, "truncated")
	}
	if len(pristine) > 0 {
		in.prev = pristine
	}
	return b, false
}

// ---- prooffleet.FaultHook (the remote proving client) ----

// FleetDispatch may make backend unreachable for dispatch seq: a flap
// hits whichever backend the dispatch landed on, a partition only the
// seeded subset of backends. The fleet treats either as a transport
// failure and fails the key over.
func (in *Injector) FleetDispatch(backend string, seq int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fires(FleetFlap, seq) {
		in.log(FleetFlap, seq, "backend flapped: "+backend)
		return errors.New("faultinject: backend flapped (injected)")
	}
	if in.fires(FleetPartition, seq) && in.partitioned(backend) {
		in.log(FleetPartition, seq, "partitioned from: "+backend)
		return errors.New("faultinject: backend partitioned (injected)")
	}
	return nil
}

// FleetDelay may stall backend's reply for dispatch seq (slow trickle).
func (in *Injector) FleetDelay(backend string, seq int) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fires(FleetSlow, seq) {
		in.log(FleetSlow, seq, backend+" slowed "+in.delay.String())
		return in.delay
	}
	return 0
}

// FleetProof may corrupt backend's proof reply for dispatch seq (a
// byzantine prover). The fleet's sanity decode catches the garbage and
// fails over; the bytes never reach the kernel checker.
func (in *Injector) FleetProof(backend string, seq int, payload []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fires(FleetByzantine, seq) {
		in.log(FleetByzantine, seq, "byzantine reply from "+backend)
		return in.flip(payload)
	}
	return payload
}

// partitioned deterministically assigns each backend to one side of the
// partition: FNV of the endpoint, salted by a seed-derived value drawn
// once, decides reachability — stable for the injector's lifetime, and a
// pure function of (seed, endpoint) so schedules replay. Caller holds
// in.mu.
func (in *Injector) partitioned(backend string) bool {
	if in.partitionSalt == 0 {
		in.partitionSalt = in.rng.Uint64() | 1
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(backend); i++ {
		h ^= uint64(backend[i])
		h *= 1099511628211
	}
	return (h^in.partitionSalt)&1 == 0
}
