// Package prooffleet is the remote proving client. It spreads the
// content-addressed obligation key space across N bcfd backends by
// rendezvous hashing (a single endpoint is a fleet of one) and fails a
// key over down its ranking when a backend has a transport fault.
//
// Nothing a backend returns is trusted: the kernel re-checks every
// proof, so a backend that lies, hangs or dies can cost load time but
// never a verdict. The client therefore does three things. It routes
// each obligation to its rendezvous primary. It fails over on transport
// errors, including byzantine replies the sanity decode catches, and
// keeps a failed backend out of the ranking for DownFor. When no backend
// answers it reports bcferr.ErrRemoteUnavailable, which the loader turns
// into its in-process fallback.
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
	DefaultConnectTimeout = 1 * time.Second
	DefaultRequestTimeout = 30 * time.Second
	// DownFor is how long one transport failure keeps a backend out of
	// the ranking. The first dispatch that ranks it after that tries it
	// again.
	DownFor = 500 * time.Millisecond
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
	// RequestTimeout bounds each backend attempt, in addition to the
	// caller's context (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration

	// HedgeDelay is ignored: the fleet sends each obligation to one
	// backend at a time. The field stays so existing callers compile.
	HedgeDelay time.Duration

	// Obs and Trace, when non-nil, receive fleet metrics and spans.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Fault injects fleet faults (tests only).
	Fault FaultHook
}

// Fleet is the remote proving client. It implements
// loader.RemoteProver: ProveBytes sends the obligation to its
// rendezvous primary and fails over down the ranking on transport
// errors. Authoritative replies (a proof, a counterexample or a
// classified daemon error) are final: no failover, no fallback. When
// every backend has failed or is down, ProveBytes returns an error
// wrapping bcferr.ErrRemoteUnavailable, and the loader falls back in
// process. A fleet of one endpoint has the same contract.
type Fleet struct {
	opts     Options
	backends []*backend

	seq atomic.Int64 // fleet-wide dispatch sequence (fault schedules)

	dispatches atomic.Int64
	failovers  atomic.Int64
	byzantine  atomic.Int64

	closed atomic.Bool
}

// backend is one bcfd daemon: its multiplexed connection (redialed on
// poisoning) and the end of its current cooldown.
type backend struct {
	id            string // endpoint as configured (metrics label, hashing)
	network, addr string

	// downUntil is the end of the backend's cooldown in Unix
	// nanoseconds; the backend is down while the clock is before it.
	downUntil  atomic.Int64
	dispatches atomic.Int64
	opens      atomic.Int64 // transitions into the down state

	mu   sync.Mutex
	conn *proofrpc.MuxConn
}

func (b *backend) down(now time.Time) bool { return now.UnixNano() < b.downUntil.Load() }

// markDown takes b out of the ranking for DownFor after a transport
// failure. A transition from up to down is counted and journalled; a
// failure while already down only extends the cooldown.
func (f *Fleet) markDown(b *backend, cause error) {
	now := time.Now()
	if prev := b.downUntil.Swap(now.Add(DownFor).UnixNano()); prev > now.UnixNano() {
		return
	}
	n := b.opens.Add(1)
	f.opts.Obs.Counter(obs.Label(obs.MFleetBreakerOpens, "backend", b.id)).Inc()
	if j := f.opts.Obs.Journal(); j != nil {
		j.Recordf(obs.JKindBreaker, "fleet", n, "backend %s down for %v: %v", b.id, DownFor, cause)
	}
}

// New builds a fleet client over the given backends. It does not dial
// until the first request.
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
	f := &Fleet{opts: opts}
	for _, ep := range opts.Endpoints {
		network, addr, err := proofrpc.ParseAddr(ep)
		if err != nil {
			return nil, fmt.Errorf("prooffleet: endpoint %q: %w", ep, err)
		}
		f.backends = append(f.backends, &backend{id: ep, network: network, addr: addr})
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

// Close drops every backend connection. In-flight requests fail as
// transport errors (the loader falls back in process); later calls
// return bcferr.ErrRemoteUnavailable without dialing.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
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
// stampeding a single neighbor.
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
	sort.Slice(sc, func(i, j int) bool { return sc[i].score > sc[j].score })
	out := make([]*backend, len(sc))
	for i, s := range sc {
		out[i] = s.b
	}
	return out
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

// dispatch tries the ranked backends that are not down, one at a time
// on the caller's goroutine, until one gives an authoritative answer (a
// proof, a counterexample or a remote solver error). A transport failure
// moves on to the next backend. If none answers, the last transport
// error is returned; if every backend was down, nothing is dialed.
func (f *Fleet) dispatch(ctx context.Context, cond []byte, tc obs.TraceContext) ([]byte, error) {
	var lastErr error
	tried := 0
	for _, b := range f.rank(cond) {
		if b.down(time.Now()) {
			continue
		}
		if tried > 0 {
			f.failovers.Add(1)
			f.opts.Obs.Counter(obs.MFleetFailovers).Inc()
		}
		tried++
		proof, err, transport := f.proveOn(ctx, b, cond, tc)
		if !transport {
			return proof, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if tried == 0 {
		return nil, unavailable("prooffleet: every backend is down")
	}
	return nil, lastErr
}

// proveOn runs one obligation against one backend. transport=true marks
// a wire failure or a byzantine reply: the dispatch loop fails over, and
// the backend goes down for DownFor unless the caller's context ended,
// which says nothing about the backend. Each attempt is its own
// backend-prove span under the fleet-prove span (tc).
func (f *Fleet) proveOn(ctx context.Context, b *backend, cond []byte, tc obs.TraceContext) (proof []byte, err error, transport bool) {
	seq := int(f.seq.Add(1) - 1)
	b.dispatches.Add(1)
	f.dispatches.Add(1)
	f.opts.Obs.Counter(obs.Label(obs.MFleetDispatches, "backend", b.id)).Inc()

	sp := f.opts.Trace.StartUnder(tc, obs.CatRPC, "backend-prove")
	outcome := "transport"
	defer func() {
		sp.EndArgs(map[string]any{"backend": b.id, "outcome": outcome})
	}()
	// The wire carries this attempt's span, so the daemon's tier spans
	// nest under the exact backend attempt that caused them.
	wtc := sp.Context()
	wtc.Flags |= obs.FlagShipSpans

	fail := func(err error) ([]byte, error, bool) {
		if ctx.Err() != nil {
			outcome = "cancelled"
			return nil, unavailable("prooffleet: %v", ctx.Err()), true
		}
		f.markDown(b, err)
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
				return fail(ctx.Err())
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
		return nil, ierr, false
	}
	outcome = "proof"
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

// BackendStats is one backend's snapshot.
type BackendStats struct {
	Endpoint   string `json:"endpoint"`
	Dispatches int64  `json:"dispatches"`
	// Opens counts the backend's transitions into the down state.
	Opens int64 `json:"opens"`
	// Down reports that the backend is inside its cooldown.
	Down bool `json:"down,omitempty"`
}

// Stats is a fleet-wide snapshot (bcfbench's BENCH JSON embeds it).
type Stats struct {
	Backends   []BackendStats `json:"backends"`
	Dispatches int64          `json:"dispatches"`
	Failovers  int64          `json:"failovers"`
	Byzantine  int64          `json:"byzantine"`
}

// Stats snapshots the fleet's counters.
func (f *Fleet) Stats() Stats {
	s := Stats{
		Dispatches: f.dispatches.Load(),
		Failovers:  f.failovers.Load(),
		Byzantine:  f.byzantine.Load(),
	}
	now := time.Now()
	for _, b := range f.backends {
		s.Backends = append(s.Backends, BackendStats{
			Endpoint:   b.id,
			Dispatches: b.dispatches.Load(),
			Opens:      b.opens.Load(),
			Down:       b.down(now),
		})
	}
	return s
}
