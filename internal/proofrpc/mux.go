package proofrpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bcf/internal/obs"
)

// MuxConn multiplexes concurrent requests over one connection: every
// request carries a fresh request ID, a single reader goroutine
// demultiplexes replies back to their callers, and replies may arrive in
// any order. This is the fleet's transport: one connection per backend
// carries every in-flight obligation, so N concurrent loads cost one
// socket, not N.
//
// A MuxConn is single-use: the first transport error (read failure,
// malformed frame, unmatched request ID) poisons it, fails every pending
// request, and closes the socket. Callers (prooffleet's backends) treat
// a poisoned conn as a dead dial and redial.
type MuxConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan *Frame
	err     error // first transport error; poisons the conn
	closed  chan struct{}

	seq atomic.Uint64
}

// DialMux dials network/addr, waiting at most connectTimeout (0 = no
// bound), and starts the reply demultiplexer.
func DialMux(network, addr string, connectTimeout time.Duration) (*MuxConn, error) {
	conn, err := net.DialTimeout(network, addr, connectTimeout)
	if err != nil {
		return nil, fmt.Errorf("proofrpc: dial %s %s: %w", network, addr, err)
	}
	return NewMuxConn(conn), nil
}

// NewMuxConn wraps an established connection; it takes ownership of conn.
func NewMuxConn(conn net.Conn) *MuxConn {
	m := &MuxConn{
		conn:    conn,
		pending: map[uint64]chan *Frame{},
		closed:  make(chan struct{}),
	}
	go m.readLoop()
	return m
}

// readLoop is the single reader: it routes each reply frame to the
// pending request with the matching ID and poisons the conn on the first
// transport fault (the stream cannot be resynchronized after garbage).
func (m *MuxConn) readLoop() {
	for {
		f, err := ReadFrame(m.conn)
		if err != nil {
			m.fail(fmt.Errorf("proofrpc: read: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[f.ReqID]
		if ok {
			delete(m.pending, f.ReqID)
		}
		m.mu.Unlock()
		if !ok {
			// A reply nobody is waiting for: either the daemon invented a
			// request ID or it answered a request whose caller already gave
			// up and was cancelled. The former is a protocol breach we
			// cannot distinguish from the latter, so drop the frame; the
			// stream itself is still framed correctly.
			continue
		}
		ch <- f // buffered (cap 1); never blocks the reader
	}
}

// fail poisons the conn: records the first error, closes the socket, and
// wakes every pending caller.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.closed)
	}
	m.mu.Unlock()
	m.conn.Close()
}

// Close tears the connection down; pending requests fail with a
// transport error.
func (m *MuxConn) Close() error {
	m.fail(fmt.Errorf("proofrpc: mux conn closed"))
	return nil
}

// Err returns the poisoning transport error, nil while healthy.
func (m *MuxConn) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Do ships one request frame and waits for its reply, honoring ctx. A
// cancelled request abandons its ID — a late reply for it is discarded
// by the read loop — without disturbing other in-flight requests; the
// connection stays usable.
func (m *MuxConn) Do(ctx context.Context, typ uint32, payload []byte) (*Frame, error) {
	return m.DoTraced(ctx, typ, payload, obs.TraceContext{})
}

// DoTraced is Do with a trace context attached to the request frame, so
// the serving daemon records its spans under the caller's trace.
func (m *MuxConn) DoTraced(ctx context.Context, typ uint32, payload []byte, tc obs.TraceContext) (*Frame, error) {
	id := m.seq.Add(1)
	ch := make(chan *Frame, 1)

	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.pending[id] = ch
	m.mu.Unlock()

	f := &Frame{Type: typ, ReqID: id, Payload: payload, Trace: tc}
	m.wmu.Lock()
	err := WriteFrame(m.conn, f)
	m.wmu.Unlock()
	if err != nil {
		m.abandon(id)
		m.fail(fmt.Errorf("proofrpc: write: %w", err))
		return nil, err
	}

	select {
	case rf := <-ch:
		return rf, nil
	case <-ctx.Done():
		m.abandon(id)
		return nil, ctx.Err()
	case <-m.closed:
		m.mu.Lock()
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
}

// abandon forgets a pending request (cancellation, write failure).
func (m *MuxConn) abandon(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// Ping round-trips a liveness frame.
func (m *MuxConn) Ping(ctx context.Context) error {
	rf, err := m.Do(ctx, TPing, nil)
	if err != nil {
		return err
	}
	if rf.Type != TPong {
		return fmt.Errorf("proofrpc: unexpected reply type %s to %s", TypeString(rf.Type), TypeString(TPing))
	}
	return nil
}

// PingTime round-trips a liveness frame and returns the daemon's wall
// clock stamp with the measured RTT (clock-offset estimation for span
// stitching). A daemon that does not stamp pongs yields nano 0.
func (m *MuxConn) PingTime(ctx context.Context) (nano int64, rtt time.Duration, err error) {
	t0 := time.Now()
	rf, err := m.Do(ctx, TPing, nil)
	rtt = time.Since(t0)
	if err != nil {
		return 0, rtt, err
	}
	if rf.Type != TPong {
		return 0, rtt, fmt.Errorf("proofrpc: unexpected reply type %s to %s", TypeString(rf.Type), TypeString(TPing))
	}
	nano, err = DecodePongPayload(rf.Payload)
	return nano, rtt, err
}

// FetchSpans asks the daemon for the spans it recorded under the given
// trace ID.
func (m *MuxConn) FetchSpans(ctx context.Context, hi, lo uint64) (obs.ExportedTrace, error) {
	var ex obs.ExportedTrace
	rf, err := m.Do(ctx, TSpans, EncodeSpansRequest(hi, lo))
	if err != nil {
		return ex, err
	}
	if rf.Type != TSpansOK {
		return ex, fmt.Errorf("proofrpc: unexpected reply type %s to %s", TypeString(rf.Type), TypeString(TSpans))
	}
	if err := json.Unmarshal(rf.Payload, &ex); err != nil {
		return ex, fmt.Errorf("proofrpc: bad %s payload: %w", TypeString(TSpansOK), err)
	}
	return ex, nil
}
