package proofrpc

import (
	"context"
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

// Do ships one request frame, carrying tc when it is valid so the
// serving daemon records its spans under the caller's trace, and waits
// for its reply, honoring ctx. A cancelled request abandons its ID — a
// late reply for it is discarded by the read loop — without disturbing
// other in-flight requests; the connection stays usable.
func (m *MuxConn) Do(ctx context.Context, typ uint32, payload []byte, tc obs.TraceContext) (*Frame, error) {
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
