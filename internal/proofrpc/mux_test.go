package proofrpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// muxEchoServer speaks the frame protocol on the server end of a pipe:
// TPing → TPong, TProve → TProofOK echoing
// the request payload back (so tests can verify reply routing). Replies
// can be held and released out of order via the hold callback.
func muxEchoServer(t *testing.T, conn net.Conn, hold func(f *Frame) <-chan struct{}) {
	t.Helper()
	var wmu sync.Mutex
	reply := func(f *Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteFrame(conn, f); err != nil {
			return // client went away
		}
	}
	go func() {
		for {
			f, err := ReadFrame(conn)
			if err != nil {
				return
			}
			go func(f *Frame) {
				if hold != nil {
					if gate := hold(f); gate != nil {
						<-gate
					}
				}
				switch f.Type {
				case TPing:
					reply(&Frame{Type: TPong, ReqID: f.ReqID})
				case TProve:
					reply(&Frame{Type: TProofOK, ReqID: f.ReqID, Payload: f.Payload})
				}
			}(f)
		}
	}()
}

func pipeMux(t *testing.T, hold func(f *Frame) <-chan struct{}) *MuxConn {
	t.Helper()
	cli, srv := net.Pipe()
	muxEchoServer(t, srv, hold)
	m := NewMuxConn(cli)
	t.Cleanup(func() {
		m.Close()
		srv.Close()
	})
	return m
}

// TestMuxConcurrentOutOfOrder drives many concurrent requests down one
// connection while the server releases the replies in reverse arrival
// order: every caller must still get the reply that matches its own
// request ID.
func TestMuxConcurrentOutOfOrder(t *testing.T) {
	const n = 8
	var (
		mu      sync.Mutex
		gates   []chan struct{}
		arrived = make(chan struct{}, n)
	)
	hold := func(f *Frame) <-chan struct{} {
		if f.Type != TProve {
			return nil
		}
		g := make(chan struct{})
		mu.Lock()
		gates = append(gates, g)
		mu.Unlock()
		arrived <- struct{}{}
		return g
	}
	m := pipeMux(t, hold)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i), 0xBC, 0xF0}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rf, err := m.Do(ctx, TProve, payload)
			if err != nil {
				errs[i] = err
				return
			}
			if rf.Type != TProofOK || len(rf.Payload) != 3 || rf.Payload[0] != byte(i) {
				t.Errorf("request %d: got type %d payload %v", i, rf.Type, rf.Payload)
			}
		}(i)
	}
	// Wait for all requests to be inflight, then answer newest-first.
	for i := 0; i < n; i++ {
		<-arrived
	}
	mu.Lock()
	for i := len(gates) - 1; i >= 0; i-- {
		close(gates[i])
	}
	mu.Unlock()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// TestMuxPing exercises the liveness handshake end to end.
func TestMuxPing(t *testing.T) {
	m := pipeMux(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestMuxDoCancelled: a cancelled caller abandons its request without
// poisoning the connection — later requests still work even if the
// stale reply arrives in between.
func TestMuxDoCancelled(t *testing.T) {
	var (
		mu   sync.Mutex
		gate chan struct{}
	)
	hold := func(f *Frame) <-chan struct{} {
		if f.Type != TProve {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if gate == nil {
			gate = make(chan struct{})
			return gate
		}
		return nil
	}
	m := pipeMux(t, hold)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := m.Do(ctx, TProve, []byte{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}

	// Release the held (now-abandoned) reply; the mux must drop it and
	// keep serving.
	mu.Lock()
	close(gate)
	mu.Unlock()

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	rf, err := m.Do(ctx2, TProve, []byte{2})
	if err != nil {
		t.Fatalf("Do after cancel: %v", err)
	}
	if rf.Payload[0] != 2 {
		t.Fatalf("got stale reply payload %v", rf.Payload)
	}
	if m.Err() != nil {
		t.Fatalf("connection poisoned: %v", m.Err())
	}
}

// TestMuxPoisonedOnPeerClose: when the peer drops the connection, every
// pending request fails, Err() reports the fault and later requests fail
// fast instead of hanging.
func TestMuxPoisonedOnPeerClose(t *testing.T) {
	cli, srv := net.Pipe()
	m := NewMuxConn(cli)
	defer m.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := m.Do(ctx, TProve, []byte{1})
		done <- err
	}()
	// Swallow the request, then hang up mid-flight.
	if _, err := ReadFrame(srv); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if err := <-done; err == nil {
		t.Fatal("pending Do survived peer close")
	}
	if m.Err() == nil {
		t.Fatal("Err() nil after peer close")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := m.Do(ctx, TProve, []byte{2}); err == nil {
		t.Fatal("Do on poisoned conn succeeded")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("Do on poisoned conn hung until deadline instead of failing fast")
	}
}
