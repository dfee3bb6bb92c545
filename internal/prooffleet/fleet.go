// Package prooffleet is the remote proving client: it spreads the
// content-addressed obligation key space across N bcfd backends by
// rendezvous hashing (a single endpoint is a fleet of one) and wraps
// every dispatch in a full resilience stack — per-backend health
// (active ping/health probes plus passive error-rate tracking) feeding
// a three-state circuit breaker, hedged requests for slow keys,
// token-bucket + inflight admission control with typed backpressure,
// and rendezvous-rehash failover so a dead backend's key range migrates
// to the survivors without stampeding any single one of them.
//
// The design leans entirely on the paper's trust argument: the kernel
// re-checks every proof, so the proving tier can be aggressively
// fault-tolerant with zero soundness risk. A backend may lie, hang, die
// or return garbage; the worst it can cost is latency, because every
// degradation path ends at the loader's transparent in-process fallback
// (the terminal state of the degradation ladder) and every accepted
// proof still passes the kernel-side checker.
package prooffleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/obs"
	"bcf/internal/proofrpc"
)

// Fleet defaults.
const (
	DefaultConnectTimeout  = 1 * time.Second
	DefaultRequestTimeout  = 30 * time.Second
	DefaultProbeInterval   = 250 * time.Millisecond
	DefaultHedgePercentile = 90.0
	DefaultHedgeMinSamples = 16
	DefaultHedgeMinDelay   = 1 * time.Millisecond
	DefaultMaxInflight     = 256
)

// FaultHook intercepts fleet dispatches (test instrumentation;
// internal/faultinject implements it). A nil hook costs nothing. seq is
// the fleet-wide dispatch sequence number, so schedules can target
// specific dispatches; backend is the endpoint string.
type FaultHook interface {
	// FleetDispatch runs before a request is written to a backend; a
	// non-nil error models the backend being unreachable (flap or
	// partition).
	FleetDispatch(backend string, seq int) error
	// FleetDelay may stall the backend's reply (slow trickle).
	FleetDelay(backend string, seq int) time.Duration
	// FleetProof may replace the reply payload (byzantine backend
	// returning corrupt proof bytes).
	FleetProof(backend string, seq int, payload []byte) []byte
}

// Options configure a Fleet.
type Options struct {
	// Endpoints are the bcfd backends ("unix:/path" or "host:port"; see
	// proofrpc.ParseAddr). At least one is required.
	Endpoints []string

	// ConnectTimeout bounds each dial (0 = DefaultConnectTimeout).
	ConnectTimeout time.Duration
	// RequestTimeout bounds each dispatch end to end, in addition to the
	// caller's context (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration

	// HedgeDelay, when positive, is a fixed delay after which a second
	// backend is tried for a still-unanswered obligation. Zero derives
	// the delay from the observed latency distribution (HedgePercentile
	// of recent successes); negative disables hedging.
	HedgeDelay time.Duration
	// HedgePercentile picks the latency percentile the derived hedge
	// delay tracks (0 = DefaultHedgePercentile).
	HedgePercentile float64
	// HedgeMinSamples is how many latency samples must accumulate before
	// derived hedging arms (0 = DefaultHedgeMinSamples).
	HedgeMinSamples int

	// MaxInflight bounds concurrently-admitted obligations
	// (0 = DefaultMaxInflight; negative = unlimited).
	MaxInflight int
	// RatePerSec, when positive, bounds the sustained dispatch rate with
	// a token bucket of the given Burst (Burst 0 = one second of rate).
	RatePerSec float64
	Burst      int

	// ProbeInterval is the active health-probe period (0 =
	// DefaultProbeInterval; negative disables active probing).
	ProbeInterval time.Duration

	// BreakerFailures consecutive transport failures trip a backend's
	// breaker open (0 = 3). BreakerCooldown is the open dwell time
	// before the probationary trickle (0 = 500ms). BreakerProbation is
	// how many trickle successes close it again (0 = 2).
	BreakerFailures  int
	BreakerCooldown  time.Duration
	BreakerProbation int

	// Obs and Trace, when non-nil, receive fleet metrics and spans.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Fault injects fleet faults (tests only).
	Fault FaultHook
}

// Fleet is the remote proving client. It implements
// loader.RemoteProver: ProveBytes consistent-hashes the obligation onto
// a backend and degrades through hedging, failover and (by returning
// bcferr.ErrRemoteUnavailable) the loader's in-process fallback.
// Authoritative replies — a counterexample or a classified daemon error
// — are final: no failover, no fallback. Admission-control rejections
// return bcferr.ErrBackpressure, which the loader converts into a
// bounded wait, not a failure. A fleet of one endpoint has the same
// contract: its transport faults trip the one breaker and surface as
// bcferr.ErrRemoteUnavailable.
type Fleet struct {
	opts     Options
	backends []*backend
	admit    *admission
	lat      *latencyDigest

	seq atomic.Int64 // fleet-wide dispatch sequence (fault schedules)

	dispatches   atomic.Int64
	failovers    atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	backpressure atomic.Int64
	byzantine    atomic.Int64

	probeStop chan struct{}
	probeDone chan struct{}

	closed atomic.Bool
}

// backend is one bcfd daemon: its multiplexed connection (redialed on
// poisoning), circuit breaker and health signals.
type backend struct {
	id            string // endpoint as configured (metrics label, hashing)
	network, addr string

	breaker *breaker
	health  *healthTracker

	draining   atomic.Bool
	dispatches atomic.Int64

	// lastBreakerState is the breaker state last seen by noteBreaker, so
	// transitions (not steady states) reach the flight recorder.
	lastBreakerState atomic.Int32

	mu   sync.Mutex
	conn *proofrpc.MuxConn
}

// noteBreaker journals a breaker state transition the moment it is
// observed (the breaker itself has no callback hook; every path that
// feeds it passes through here right after).
func (f *Fleet) noteBreaker(b *backend) {
	st := int32(b.breaker.State())
	if prev := b.lastBreakerState.Swap(st); prev != st {
		if j := f.opts.Obs.Journal(); j != nil {
			j.Recordf(obs.JKindBreaker, "fleet", int64(st),
				"backend %s: %s -> %s", b.id, BreakerState(prev).String(), BreakerState(st).String())
		}
	}
}

// New builds a fleet client over the given backends. It does not dial
// until the first request or probe.
func New(opts Options) (*Fleet, error) {
	if len(opts.Endpoints) == 0 {
		return nil, fmt.Errorf("prooffleet: no endpoints")
	}
	if opts.ConnectTimeout <= 0 {
		opts.ConnectTimeout = DefaultConnectTimeout
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.HedgePercentile <= 0 {
		opts.HedgePercentile = DefaultHedgePercentile
	}
	if opts.HedgeMinSamples <= 0 {
		opts.HedgeMinSamples = DefaultHedgeMinSamples
	}
	if opts.MaxInflight == 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}

	f := &Fleet{
		opts:  opts,
		admit: newAdmission(opts.RatePerSec, opts.Burst, opts.MaxInflight, time.Now()),
		lat:   newLatencyDigest(),
	}
	bcfg := breakerConfig{
		failures:  opts.BreakerFailures,
		cooldown:  opts.BreakerCooldown,
		probation: opts.BreakerProbation,
	}
	for _, ep := range opts.Endpoints {
		network, addr, err := proofrpc.ParseAddr(ep)
		if err != nil {
			return nil, fmt.Errorf("prooffleet: endpoint %q: %w", ep, err)
		}
		f.backends = append(f.backends, &backend{
			id:      ep,
			network: network,
			addr:    addr,
			breaker: newBreaker(bcfg),
			health:  newHealthTracker(),
		})
	}
	if opts.ProbeInterval > 0 {
		f.probeStop = make(chan struct{})
		f.probeDone = make(chan struct{})
		go f.probeLoop()
	}
	return f, nil
}

// SplitEndpoints parses a comma-separated endpoint list (the CLIs'
// -remote flag), dropping empty elements.
func SplitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// errClosed reports a call on a closed fleet.
var errClosed = unavailable("prooffleet: fleet closed")

// Close stops the prober and drops every backend connection. In-flight
// requests fail as transport errors (the loader falls back in process);
// later calls return bcferr.ErrRemoteUnavailable without dialing.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	if f.probeStop != nil {
		close(f.probeStop)
		<-f.probeDone
	}
	for _, b := range f.backends {
		b.mu.Lock()
		if b.conn != nil {
			b.conn.Close()
			b.conn = nil
		}
		b.mu.Unlock()
	}
	return nil
}

// unavailable wraps a fleet-level failure so that
// errors.Is(err, bcferr.ErrRemoteUnavailable) holds.
func unavailable(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, bcferr.ErrRemoteUnavailable)...)
}

// rank orders backends for a key by rendezvous (highest-random-weight)
// hashing: every backend is scored by hash(key, backend) and sorted
// descending. The ordering is a pure function of (key, endpoint set), so
// every client agrees on a key's primary — cache affinity — and when a
// backend dies its keys migrate to their individual second choices,
// spreading the orphaned range across all survivors instead of
// stampeding a single neighbor. Draining backends sink to the back of
// the order without changing the relative ranking of the rest.
func (f *Fleet) rank(key []byte) []*backend {
	type scored struct {
		b     *backend
		score uint64
	}
	sc := make([]scored, len(f.backends))
	for i, b := range f.backends {
		h := fnv.New64a()
		h.Write(key)
		h.Write([]byte(b.id))
		sc[i] = scored{b, h.Sum64()}
	}
	sort.Slice(sc, func(i, j int) bool {
		di, dj := sc[i].b.draining.Load(), sc[j].b.draining.Load()
		if di != dj {
			return !di // non-draining first
		}
		return sc[i].score > sc[j].score
	})
	out := make([]*backend, len(sc))
	for i, s := range sc {
		out[i] = s.b
	}
	return out
}

// hedgeDelay derives the current hedge delay: a fixed configured value,
// or the configured percentile of recently observed latencies once
// enough samples exist. Zero means "don't hedge this request".
func (f *Fleet) hedgeDelay() time.Duration {
	if f.opts.HedgeDelay < 0 {
		return 0
	}
	if f.opts.HedgeDelay > 0 {
		return f.opts.HedgeDelay
	}
	if f.lat.Count() < f.opts.HedgeMinSamples {
		return 0
	}
	d := f.lat.Percentile(f.opts.HedgePercentile)
	if d < DefaultHedgeMinDelay {
		d = DefaultHedgeMinDelay
	}
	if max := f.opts.RequestTimeout / 2; d > max {
		d = max
	}
	return d
}

// Ping probes the first reachable backend (connectivity check).
func (f *Fleet) Ping(ctx context.Context) error {
	var lastErr error
	for _, b := range f.backends {
		conn, err := f.muxConn(b)
		if err != nil {
			lastErr = err
			continue
		}
		if err := conn.Ping(ctx); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return unavailable("prooffleet: ping: %v", lastErr)
}

// ProveBytes ships one encoded condition to the fleet and returns the
// encoded proof. It implements loader.RemoteProver; see the Fleet doc
// for the error contract.
func (f *Fleet) ProveBytes(ctx context.Context, cond []byte) ([]byte, error) {
	if f.closed.Load() {
		return nil, errClosed
	}
	if err := f.admit.Admit(time.Now()); err != nil {
		f.backpressure.Add(1)
		f.opts.Obs.Counter(obs.MFleetBackpressure).Inc()
		return nil, fmt.Errorf("prooffleet: admission: %w", err)
	}
	f.opts.Obs.Gauge(obs.MFleetInflight).Add(1)
	defer func() {
		f.opts.Obs.Gauge(obs.MFleetInflight).Add(-1)
		f.admit.Release()
	}()

	var t0 time.Time
	if f.opts.Obs != nil {
		t0 = time.Now()
	}
	sp := f.opts.Trace.StartUnder(obs.SpanFromContext(ctx), obs.CatRPC, "fleet-prove")
	out, err := f.dispatch(ctx, cond, sp.Context())
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	sp.EndArgs(map[string]any{"outcome": outcome})
	if f.opts.Obs != nil {
		f.opts.Obs.StageHistogram(obs.MFleetSeconds).Since(t0)
	}
	return out, err
}

// outcome is one backend attempt's result.
type outcome struct {
	proof     []byte
	err       error
	transport bool
	hedge     bool
}

// dispatch drives one obligation through the resilience stack: primary
// by rendezvous rank, a hedge to the next-ranked backend when the
// primary is slow (first answer wins, loser cancelled), and failover
// down the ranking on transport failures. Authoritative answers
// (proofs, counterexamples, remote solver errors) end the dispatch
// immediately; exhausting every backend reports
// bcferr.ErrRemoteUnavailable so the loader falls back in process.
func (f *Fleet) dispatch(ctx context.Context, cond []byte, tc obs.TraceContext) ([]byte, error) {
	ranked := f.rank(cond)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the hedge loser

	results := make(chan outcome, len(ranked))
	next, launched := 0, 0
	launch := func(hedge bool) bool {
		for next < len(ranked) {
			b := ranked[next]
			next++
			if !b.breaker.Allow(time.Now()) {
				// Breaker rejections are instants, not spans: nothing ran,
				// but the trace should show the road not taken.
				f.opts.Trace.WithParent(tc).Instant(obs.CatRPC, "breaker-reject",
					map[string]any{"backend": b.id})
				continue
			}
			launched++
			go func(b *backend) {
				proof, err, transport := f.proveOn(cctx, b, cond, hedge, tc)
				results <- outcome{proof, err, transport, hedge}
			}(b)
			return true
		}
		return false
	}

	if !launch(false) {
		return nil, unavailable("prooffleet: every backend's breaker is open")
	}
	var hedgeTimer *time.Timer
	var hedgeFire <-chan time.Time
	if d := f.hedgeDelay(); d > 0 && next < len(ranked) {
		hedgeTimer = time.NewTimer(d)
		hedgeFire = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	var lastErr error
	for launched > 0 {
		select {
		case <-ctx.Done():
			return nil, unavailable("prooffleet: %v", ctx.Err())
		case <-hedgeFire:
			hedgeFire = nil
			if launch(true) {
				f.hedges.Add(1)
				f.opts.Obs.Counter(obs.MFleetHedges).Inc()
			}
		case o := <-results:
			launched--
			switch {
			case o.err == nil:
				if o.hedge {
					f.hedgeWins.Add(1)
					f.opts.Obs.Counter(obs.MFleetHedgeWins).Inc()
					f.opts.Trace.WithParent(tc).Instant(obs.CatRPC, "hedge-win", nil)
					if j := f.opts.Obs.Journal(); j != nil {
						j.Record(obs.JKindHedge, "fleet", "hedge beat primary", 1)
					}
				}
				return o.proof, nil
			case !o.transport:
				// Authoritative remote outcome: counterexample or solver
				// error. No failover — every backend runs the same
				// deterministic solver.
				return nil, o.err
			default:
				lastErr = o.err
				if launch(o.hedge) {
					f.failovers.Add(1)
					f.opts.Obs.Counter(obs.MFleetFailovers).Inc()
				}
			}
		}
	}
	return nil, lastErr
}

// proveOn runs one obligation against one backend, recording breaker,
// health and latency signals. transport=true marks wire failures (the
// dispatch loop fails over); a cancelled context is *forgiven* — a
// hedge loser is not evidence the backend is unhealthy. Each attempt is
// its own child span under the fleet-prove span (tc), so a hedged
// dispatch shows as sibling spans — the one that ends outcome=proof
// won, a loser ends outcome=cancelled. The span ends inside this
// function because a losing attempt may still be running after dispatch
// has returned the winner.
func (f *Fleet) proveOn(ctx context.Context, b *backend, cond []byte, hedge bool, tc obs.TraceContext) (proof []byte, err error, transport bool) {
	seq := int(f.seq.Add(1) - 1)
	b.dispatches.Add(1)
	f.dispatches.Add(1)
	f.opts.Obs.Counter(obs.Label(obs.MFleetDispatches, "backend", b.id)).Inc()

	sp := f.opts.Trace.StartUnder(tc, obs.CatRPC, "backend-prove")
	outcome := "transport"
	defer func() {
		sp.EndArgs(map[string]any{"backend": b.id, "hedge": hedge, "outcome": outcome})
	}()
	// The wire carries this attempt's span, so the daemon's tier spans
	// nest under the exact backend attempt that caused them.
	wtc := sp.Context()
	wtc.Flags |= obs.FlagShipSpans

	fail := func(err error) ([]byte, error, bool) {
		defer f.noteBreaker(b)
		if ctx.Err() != nil {
			outcome = "cancelled"
			b.breaker.Forgive()
			return nil, unavailable("prooffleet: %v", ctx.Err()), true
		}
		b.breaker.Failure(time.Now())
		b.health.Observe(true)
		return nil, err, true
	}

	if f.opts.Fault != nil {
		if ferr := f.opts.Fault.FleetDispatch(b.id, seq); ferr != nil {
			return fail(unavailable("prooffleet: %v", ferr))
		}
	}
	conn, derr := f.muxConn(b)
	if derr != nil {
		return fail(unavailable("prooffleet: %v", derr))
	}
	rctx, rcancel := context.WithTimeout(ctx, f.opts.RequestTimeout)
	defer rcancel()

	start := time.Now()
	rf, derr := conn.DoTraced(rctx, proofrpc.TProve, cond, wtc)
	if derr != nil {
		return fail(unavailable("prooffleet: backend %s: %v", b.id, derr))
	}
	body := rf.Payload
	if f.opts.Fault != nil {
		if d := f.opts.Fault.FleetDelay(b.id, seq); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				outcome = "cancelled"
				b.breaker.Forgive()
				f.noteBreaker(b)
				return nil, unavailable("prooffleet: %v", ctx.Err()), true
			}
		}
		body = f.opts.Fault.FleetProof(b.id, seq, body)
	}
	out, src, ierr, tr := proofrpc.InterpretReply(rf.Type, body)
	if tr {
		// Readable frame, garbage content: a byzantine backend. The
		// sanity decode inside InterpretReply caught it before the bytes
		// could reach the kernel boundary; treat it as a transport
		// failure so the key fails over.
		f.byzantine.Add(1)
		f.opts.Obs.Counter(obs.Label(obs.MFleetByzantine, "backend", b.id)).Inc()
		return fail(ierr)
	}
	if ierr != nil {
		// Authoritative remote outcome (counterexample, classified solver
		// error): the wire and the backend behaved.
		outcome = "error"
		b.breaker.Success()
		b.health.Observe(false)
		f.noteBreaker(b)
		return nil, ierr, false
	}
	elapsed := time.Since(start)
	outcome = "proof"
	b.breaker.Success()
	b.health.Observe(false)
	f.noteBreaker(b)
	f.lat.Observe(elapsed)
	f.opts.Obs.Counter(obs.Label(obs.MRemoteSource, "src", proofrpc.SrcString(src))).Inc()
	return out, nil, false
}

// Stitch pulls every backend's spans for this fleet's trace and merges
// them into the fleet tracer, one process track per backend (pids
// 1000, 1001, …) with clock offsets estimated per backend from a
// stamped ping. Call it once after a traced run, before writing the
// trace file. A no-op without a tracer; per-backend failures are
// skipped (a dead backend should not cost the rest of the stitch).
func (f *Fleet) Stitch(ctx context.Context) error {
	if f.opts.Trace == nil {
		return nil
	}
	hi, lo := f.opts.Trace.TraceID()
	var firstErr error
	for i, b := range f.backends {
		conn, err := f.muxConn(b)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var offset time.Duration
		t0 := time.Now()
		if nano, rtt, perr := conn.PingTime(ctx); perr == nil && nano != 0 {
			offset = time.Duration(nano - t0.Add(rtt/2).UnixNano())
		}
		ex, err := conn.FetchSpans(ctx, hi, lo)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.opts.Trace.Merge(ex, int64(1000+i), "bcfd:"+b.id, offset)
	}
	return firstErr
}

// muxConn returns the backend's live multiplexed connection, redialing
// a poisoned or absent one. A closed fleet never dials: the check runs
// under b.mu, which Close takes after setting closed, so a dial racing
// Close is either refused here or closed there.
func (f *Fleet) muxConn(b *backend) (*proofrpc.MuxConn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f.closed.Load() {
		return nil, errClosed
	}
	if b.conn != nil && b.conn.Err() == nil {
		return b.conn, nil
	}
	if b.conn != nil {
		b.conn.Close()
		b.conn = nil
	}
	c, err := proofrpc.DialMux(b.network, b.addr, f.opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	b.conn = c
	return c, nil
}

// probeLoop is the active health prober: every ProbeInterval each
// backend answers a THealth frame. Outcomes feed the breaker exactly
// like request outcomes do — which is also how an open breaker finds
// its way back: once the cooldown elapses, the probe takes the first
// probationary slot.
func (f *Fleet) probeLoop() {
	defer close(f.probeDone)
	ticker := time.NewTicker(f.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-f.probeStop:
			return
		case <-ticker.C:
		}
		for _, b := range f.backends {
			f.probe(b)
		}
	}
}

// probe runs one active health check against one backend.
func (f *Fleet) probe(b *backend) {
	defer f.exportBreakerState(b)
	if !b.breaker.Allow(time.Now()) {
		return // open and cooling (or trickle busy): stay off the wire
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.opts.ConnectTimeout)
	defer cancel()
	conn, err := f.muxConn(b)
	if err == nil {
		var h proofrpc.Health
		h, err = conn.Health(ctx)
		if err == nil {
			b.draining.Store(h.Draining)
		}
	}
	if err != nil {
		b.breaker.Failure(time.Now())
		b.health.Observe(true)
		f.opts.Obs.Counter(obs.Labels(obs.MFleetProbes, "backend", b.id, "outcome", "fail")).Inc()
		return
	}
	b.breaker.Success()
	b.health.Observe(false)
	f.opts.Obs.Counter(obs.Labels(obs.MFleetProbes, "backend", b.id, "outcome", "ok")).Inc()
}

func (f *Fleet) exportBreakerState(b *backend) {
	f.noteBreaker(b)
	if f.opts.Obs == nil {
		return
	}
	g := f.opts.Obs.Gauge(obs.Label(obs.MFleetBreakerState, "backend", b.id))
	g.Set(int64(b.breaker.State()))
}

// BackendStats is one backend's health snapshot.
type BackendStats struct {
	Endpoint     string       `json:"endpoint"`
	State        BreakerState `json:"-"`
	StateName    string       `json:"state"`
	Dispatches   int64        `json:"dispatches"`
	ErrorRate    float64      `json:"error_rate"`
	BreakerOpens int          `json:"breaker_opens"`
	Draining     bool         `json:"draining,omitempty"`
}

// Stats is a fleet-wide snapshot (bcfbench's BENCH JSON embeds it).
type Stats struct {
	Backends     []BackendStats `json:"backends"`
	Dispatches   int64          `json:"dispatches"`
	Failovers    int64          `json:"failovers"`
	Hedges       int64          `json:"hedges"`
	HedgeWins    int64          `json:"hedge_wins"`
	Backpressure int64          `json:"backpressure"`
	Byzantine    int64          `json:"byzantine"`
	// Latency percentiles over the recent-success window, milliseconds.
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP90MS float64 `json:"latency_p90_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
}

// Stats snapshots the fleet's resilience counters.
func (f *Fleet) Stats() Stats {
	s := Stats{
		Dispatches:   f.dispatches.Load(),
		Failovers:    f.failovers.Load(),
		Hedges:       f.hedges.Load(),
		HedgeWins:    f.hedgeWins.Load(),
		Backpressure: f.backpressure.Load(),
		Byzantine:    f.byzantine.Load(),
		LatencyP50MS: float64(f.lat.Percentile(50)) / 1e6,
		LatencyP90MS: float64(f.lat.Percentile(90)) / 1e6,
		LatencyP99MS: float64(f.lat.Percentile(99)) / 1e6,
	}
	for _, b := range f.backends {
		st := b.breaker.State()
		s.Backends = append(s.Backends, BackendStats{
			Endpoint:     b.id,
			State:        st,
			StateName:    st.String(),
			Dispatches:   b.dispatches.Load(),
			ErrorRate:    b.health.ErrorRate(),
			BreakerOpens: b.breaker.Opens(),
			Draining:     b.draining.Load(),
		})
	}
	return s
}
