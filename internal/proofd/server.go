package proofd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/proofrpc"
	"bcf/internal/solver"
)

// Server defaults.
const (
	// DefaultMaxInflight bounds concurrently-proving requests; beyond
	// it, connections queue (backpressure) instead of piling goroutines
	// onto the solver.
	defaultMaxInflightFactor = 2
	// DefaultDrainTimeout bounds the graceful Shutdown drain.
	DefaultDrainTimeout = 10 * time.Second
)

// Options configure a Server.
type Options struct {
	// Solver options for obligations that miss every cache layer.
	Solver solver.Options
	// ProveTimeout bounds the solver on each obligation (0 = none).
	ProveTimeout time.Duration
	// Cache is the in-memory LRU + singleflight layer; nil allocates a
	// default-capacity one. The same structure the loader uses in
	// process, so coalescing semantics match.
	Cache *loader.ProofCache
	// Store is the disk layer under the LRU; nil disables persistence.
	Store *Store
	// MaxInflight bounds concurrently-served prove requests
	// (0 = 2×GOMAXPROCS).
	MaxInflight int
	// MaxPayload overrides the per-frame payload budget
	// (0 = proofrpc.MaxPayload).
	MaxPayload int
	// ChaosDelay, when positive, stalls every prove request by this much
	// before it is served (tests only): it holds a request inflight so
	// drain and multiplexing tests can act while it waits.
	ChaosDelay time.Duration
	// Obs and Trace, when non-nil, receive the daemon's metrics/spans.
	Obs   *obs.Registry
	Trace *obs.Tracer
}

// Server serves the proofrpc protocol: one reader goroutine per
// connection fanning each request frame out to its own handler goroutine
// (so one connection carries concurrent obligations and replies return
// out of order, keyed by request ID), singleflight coalescing of
// identical in-flight obligations, an LRU-over-disk cache hierarchy in
// front of the solver, an inflight semaphore for backpressure, and a
// graceful drain on Shutdown.
type Server struct {
	opts     Options
	cache    *loader.ProofCache
	inflight chan struct{}

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*srvConn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// srvConn is one accepted connection: a write mutex serializes reply
// frames from concurrent handlers, and wg tracks the handlers themselves
// so a drain can wait for their replies to hit the wire before the
// socket closes.
type srvConn struct {
	conn net.Conn
	wmu  sync.Mutex
	wg   sync.WaitGroup
}

// New returns an unstarted server.
func New(opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = defaultMaxInflightFactor * runtime.GOMAXPROCS(0)
	}
	if opts.MaxPayload <= 0 || opts.MaxPayload > proofrpc.MaxPayload {
		opts.MaxPayload = proofrpc.MaxPayload
	}
	cache := opts.Cache
	if cache == nil {
		cache = loader.NewProofCache()
	}
	return &Server{
		opts:      opts,
		cache:     cache,
		inflight:  make(chan struct{}, opts.MaxInflight),
		listeners: map[net.Listener]struct{}{},
		conns:     map[*srvConn]struct{}{},
	}
}

// Cache exposes the server's memory cache (stats, tests).
func (s *Server) Cache() *loader.ProofCache { return s.cache }

// Serve accepts connections on l until the listener fails or Shutdown
// runs. It blocks; run it in its own goroutine to serve several
// listeners at once.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("proofd: server closed")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sc := &srvConn{conn: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.opts.Obs.Counter(obs.MDaemonConns).Inc()
		go s.serveConn(sc)
	}
}

// Shutdown gracefully drains the server: listeners close, no new
// requests are admitted, in-flight requests finish and their replies
// reach the wire, then the connections close. Stragglers are
// force-closed when ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	// Per connection: wait for its in-flight handlers (replies written),
	// then close the socket, which also wakes its blocked reader. closed
	// is already set, so no handler can start after the Wait returns.
	for _, sc := range conns {
		go func(sc *srvConn) {
			sc.wg.Wait()
			sc.conn.Close()
		}(sc)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sc := range s.conns {
			sc.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// tryStart admits one request for handling; it reports false when the
// server is draining (no new work). The handler slot it takes on the
// connection's WaitGroup is released by the handler goroutine.
func (s *Server) tryStart(sc *srvConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	sc.wg.Add(1)
	return true
}

func (s *Server) dropConn(sc *srvConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	sc.conn.Close()
	s.wg.Done()
}

// serveConn reads frames off one connection and fans each request out to
// its own handler goroutine; replies are written under the connection's
// write mutex, so one connection carries concurrent obligations with
// out-of-order, request-ID-correlated replies (the MuxConn contract).
// The reader exits on the first transport or protocol fault — the frame
// decoder cannot resynchronize a byte stream after garbage — but waits
// for in-flight handlers before closing the socket, so their replies are
// not lost.
func (s *Server) serveConn(sc *srvConn) {
	defer func() {
		sc.wg.Wait()
		s.dropConn(sc)
	}()
	for {
		f, err := proofrpc.ReadFrame(sc.conn)
		if err != nil {
			// EOF, peer reset, or a malformed/oversized frame.
			if !isClosedErr(err) {
				s.opts.Obs.Counter(obs.MDaemonRejects).Inc()
			}
			return
		}
		if len(f.Payload) > s.opts.MaxPayload {
			s.opts.Obs.Counter(obs.MDaemonRejects).Inc()
			s.reply(sc, f.ReqID, &proofrpc.Frame{
				Type: proofrpc.TError,
				Payload: proofrpc.EncodeErrorPayload(uint32(bcferr.ClassResourceLimit),
					fmt.Sprintf("payload %d bytes exceeds server limit %d", len(f.Payload), s.opts.MaxPayload)),
			})
			return
		}
		if !s.tryStart(sc) {
			return // draining: don't start new work
		}
		go func(f *proofrpc.Frame) {
			defer sc.wg.Done()
			// A handler panic would otherwise kill the process silently;
			// dump the flight recorder first so the post-mortem has the
			// last N events, then let the crash proceed.
			defer func() {
				if r := recover(); r != nil {
					if j := s.opts.Obs.Journal(); j != nil {
						j.Recordf(obs.JKindPanic, "proofd", int64(f.Type),
							"panic handling %s: %v", proofrpc.TypeString(f.Type), r)
						j.Dump(os.Stderr)
					}
					panic(r)
				}
			}()
			s.reply(sc, f.ReqID, s.handle(f))
		}(f)
	}
}

func (s *Server) reply(sc *srvConn, reqID uint64, f *proofrpc.Frame) error {
	f.ReqID = reqID
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return proofrpc.WriteFrame(sc.conn, f)
}

// isClosedErr distinguishes a peer going away (normal) from a peer
// sending garbage (counted as a rejected frame).
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// handle serves one request frame under the inflight semaphore.
func (s *Server) handle(f *proofrpc.Frame) *proofrpc.Frame {
	switch f.Type {
	case proofrpc.TPing:
		s.opts.Obs.Counter(obs.Label(obs.MDaemonRequests, "type", "ping")).Inc()
		// The pong carries the daemon's wall clock so clients can estimate
		// the clock offset for span stitching.
		return &proofrpc.Frame{Type: proofrpc.TPong,
			Payload: proofrpc.EncodePongPayload(time.Now().UnixNano())}
	case proofrpc.TSpans:
		s.opts.Obs.Counter(obs.Label(obs.MDaemonRequests, "type", "spans")).Inc()
		hi, lo, err := proofrpc.DecodeSpansRequest(f.Payload)
		if err != nil {
			s.opts.Obs.Counter(obs.MDaemonRejects).Inc()
			return s.errorReply(bcferr.Wrap(bcferr.ClassProtocol, err))
		}
		blob, err := json.Marshal(s.opts.Trace.Export(hi, lo))
		if err != nil {
			return s.errorReply(bcferr.Wrap(bcferr.ClassProtocol, err))
		}
		return &proofrpc.Frame{Type: proofrpc.TSpansOK, Payload: blob}
	case proofrpc.TProve:
		s.inflight <- struct{}{} // backpressure beyond MaxInflight
		s.opts.Obs.Gauge(obs.MDaemonInflight).Add(1)
		if s.opts.ChaosDelay > 0 {
			// Stall inside the semaphore, where a slow solve would wait.
			time.Sleep(s.opts.ChaosDelay)
		}
		defer func() {
			s.opts.Obs.Gauge(obs.MDaemonInflight).Add(-1)
			<-s.inflight
		}()
		s.opts.Obs.Counter(obs.Label(obs.MDaemonRequests, "type", "prove")).Inc()
		var t0 time.Time
		if s.opts.Obs != nil {
			t0 = time.Now()
		}
		// When the frame carries the caller's trace context, the daemon's
		// spans record under the caller's trace ID with the caller's RPC
		// span as parent — a later TSpans fetch stitches the two timelines.
		tr := s.opts.Trace.WithParent(f.Trace)
		sp := tr.Start(obs.CatRPC, "proofd-prove")
		reply, src := s.prove(f.Payload, tr.WithParent(sp.Context()))
		sp.EndArgs(map[string]any{"src": proofrpc.SrcString(src)})
		if s.opts.Obs != nil {
			s.opts.Obs.StageHistogram(obs.MDaemonSeconds).Since(t0)
		}
		return reply
	default:
		s.opts.Obs.Counter(obs.MDaemonRejects).Inc()
		if j := s.opts.Obs.Journal(); j != nil {
			j.Recordf(obs.JKindRPC, "proofd", int64(f.Type),
				"unexpected request type %s", proofrpc.TypeString(f.Type))
		}
		return &proofrpc.Frame{
			Type: proofrpc.TError,
			Payload: proofrpc.EncodeErrorPayload(uint32(bcferr.ClassProtocol),
				fmt.Sprintf("unexpected request type %s", proofrpc.TypeString(f.Type))),
		}
	}
}

// prove resolves one obligation through the cache hierarchy:
// memory LRU → singleflight coalescing → disk store → solver. tr, when
// tracing, parents the per-tier spans under the request span.
func (s *Server) prove(cond []byte, tr *obs.Tracer) (*proofrpc.Frame, byte) {
	src := proofrpc.SrcSolved
	proofBytes, hit, shared, err := s.cache.GetOrCompute(cond, func() ([]byte, error) {
		key := CacheKey(cond)
		if s.opts.Store != nil {
			dsp := tr.Start(obs.CatProve, "disk-lookup")
			p, ok := s.opts.Store.Get(key)
			dsp.EndArgs(map[string]any{"hit": ok})
			if ok {
				src = proofrpc.SrcDisk
				return p, nil
			}
		}
		ssp := tr.Start(obs.CatProve, "solve")
		p, err := s.solve(cond)
		ssp.End()
		if err != nil {
			return nil, err
		}
		if s.opts.Store != nil {
			s.opts.Store.Put(key, p) // best-effort; a full disk only loses warmth
		}
		return p, nil
	})
	switch {
	case hit:
		src = proofrpc.SrcMem
	case shared:
		src = proofrpc.SrcCoalesced
	}
	if err != nil {
		return s.errorReply(err), src
	}
	s.opts.Obs.Counter(obs.Label(obs.MDaemonReplies, "source", proofrpc.SrcString(src))).Inc()
	return &proofrpc.Frame{Type: proofrpc.TProofOK, Payload: append([]byte{src}, proofBytes...)}, src
}

// solve runs the solver on a cache-missing obligation.
func (s *Server) solve(condBytes []byte) ([]byte, error) {
	cond, err := bcfenc.DecodeCondition(condBytes)
	if err != nil {
		return nil, bcferr.Wrap(bcferr.ClassProtocol,
			fmt.Errorf("bad condition: %w", err))
	}
	ctx := context.Background()
	if s.opts.ProveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.ProveTimeout)
		defer cancel()
	}
	sopts := s.opts.Solver
	if sopts.Obs == nil {
		sopts.Obs = s.opts.Obs
	}
	if sopts.Trace == nil {
		sopts.Trace = s.opts.Trace
	}
	out, err := solver.Prove(ctx, cond.Cond, sopts)
	if err != nil {
		return nil, err
	}
	if !out.Proven {
		return nil, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"condition violated (counterexample found)"), out.Counterexample)
	}
	return bcfenc.EncodeProof(out.Proof)
}

// errorReply maps a proving error to its wire form: counterexamples
// travel as TCex (so the loader reports the same falsifying assignment
// remote as local), everything else as a classified TError.
func (s *Server) errorReply(err error) *proofrpc.Frame {
	if cex := bcferr.CounterexampleOf(err); cex != nil {
		s.opts.Obs.Counter(obs.Label(obs.MDaemonErrors, "class", bcferr.ClassUnsafe.String())).Inc()
		return &proofrpc.Frame{Type: proofrpc.TCex, Payload: proofrpc.EncodeCexPayload(cex)}
	}
	class := bcferr.ClassOf(err)
	if class == bcferr.ClassNone {
		class = bcferr.ClassProtocol
	}
	s.opts.Obs.Counter(obs.Label(obs.MDaemonErrors, "class", class.String())).Inc()
	return &proofrpc.Frame{
		Type:    proofrpc.TError,
		Payload: proofrpc.EncodeErrorPayload(uint32(class), err.Error()),
	}
}
