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

	"bcf/internal/bcferr"
	"bcf/internal/loader"
	"bcf/internal/obs"
	"bcf/internal/proofrpc"
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
	// ChaosDelay, when positive, stalls every prove request by this much
	// before it is served (tests only): it holds a request inflight so
	// drain and multiplexing tests can act while it waits.
	ChaosDelay time.Duration
	// Obs, when non-nil, receives the daemon's metrics. Trace, when
	// non-nil, records the spans of every request (bcfd's -tracefile). A
	// request that carries a trace context gets its own spans back in the
	// reply either way.
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
			// EOF, peer reset, or a malformed frame; ReadFrame is the one
			// size check, rejecting a payload over proofrpc.MaxPayload.
			if !isClosedErr(err) {
				s.opts.Obs.Counter(obs.MDaemonRejects).Inc()
			}
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
	if f.Type != proofrpc.TProve {
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
	// A traced request records its spans, under the caller's trace ID and
	// RPC span, in a tracer of its own; the reply carries them back, and
	// the daemon's own tracer, if any, keeps a copy. Nothing is retained
	// for later.
	tr := s.opts.Trace
	if f.Trace.Valid() {
		tr = obs.NewTracer().WithParent(f.Trace)
	}
	sp := tr.Start(obs.CatRPC, "proofd-prove")
	reply, src := s.prove(f.Payload, tr.WithParent(sp.Context()))
	sp.EndArgs(map[string]any{"src": proofrpc.SrcString(src)})
	if f.Trace.Valid() {
		ex := tr.Export()
		s.opts.Trace.Join(ex)
		reply.Spans, _ = json.Marshal(ex) // spans are diagnostics: none on failure
	}
	if s.opts.Obs != nil {
		s.opts.Obs.StageHistogram(obs.MDaemonSeconds).Since(t0)
	}
	return reply
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
		p, err := s.solve(cond, tr.WithParent(ssp.Context()))
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

// solve proves a cache-missing obligation with the loader's own
// condition-to-proof function under the loader's one budget, so a
// daemon's verdict is the one the in-process loader would reach. tr
// parents the prover's spans under the request's solve span.
func (s *Server) solve(condBytes []byte, tr *obs.Tracer) ([]byte, error) {
	return loader.ProveLocal(context.Background(), condBytes, &loader.Options{
		ProveTimeout: s.opts.ProveTimeout, Obs: s.opts.Obs, Trace: tr})
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
