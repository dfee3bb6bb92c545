package proofrpc_test

// The remote proving client is a prooffleet.Fleet; a single endpoint is a
// fleet of one. These tests drive that client against a scripted frame
// server, pinning how each reply the wire can carry is classified.

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
	"bcf/internal/proofrpc"
	"bcf/internal/solver"
)

// fakeServer speaks raw frames on a Unix socket; handle maps each
// request to a reply (nil = close the connection without replying).
func fakeServer(t *testing.T, handle func(*proofrpc.Frame) *proofrpc.Frame) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "fake.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := proofrpc.ReadFrame(conn)
					if err != nil {
						return
					}
					reply := handle(f)
					if reply == nil {
						return
					}
					reply.ReqID = f.ReqID
					if err := proofrpc.WriteFrame(conn, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "unix:" + sock
}

// newTestClient builds a fleet of one, so every frame the server sees
// comes from the call under test.
func newTestClient(t *testing.T, endpoint string, reg *obs.Registry) *prooffleet.Fleet {
	t.Helper()
	c, err := prooffleet.New(prooffleet.Options{
		Endpoints:      []string{endpoint},
		ConnectTimeout: time.Second,
		RequestTimeout: 2 * time.Second,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// validProof returns encoded proof bytes that pass the client's sanity
// decode.
func validProof(t *testing.T) []byte {
	t.Helper()
	cond := expr.Ule(expr.Const(0, 8), expr.Var(1, 8))
	out, err := solver.Prove(context.Background(), cond, solver.Options{})
	if err != nil || !out.Proven {
		t.Fatalf("proving trivial condition: %v", err)
	}
	b, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestClientPingAndProve(t *testing.T) {
	proof := validProof(t)
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		switch f.Type {
		case proofrpc.TPing:
			return &proofrpc.Frame{Type: proofrpc.TPong}
		case proofrpc.TProve:
			return &proofrpc.Frame{Type: proofrpc.TProofOK, Payload: append([]byte{proofrpc.SrcDisk}, proof...)}
		}
		return nil
	})
	reg := obs.NewRegistry()
	c := newTestClient(t, endpoint, reg)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	got, err := c.ProveBytes(context.Background(), []byte("cond"))
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if string(got) != string(proof) {
		t.Fatal("proof bytes mangled in transit")
	}
	if n := reg.Counter(obs.Label(obs.MRemoteSource, "src", "disk")).Value(); n != 1 {
		t.Fatalf("disk-source counter = %d, want 1", n)
	}
}

func TestClientCounterexample(t *testing.T) {
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		return &proofrpc.Frame{Type: proofrpc.TCex, Payload: proofrpc.EncodeCexPayload(map[uint32]uint64{7: 99})}
	})
	c := newTestClient(t, endpoint, nil)
	_, err := c.ProveBytes(context.Background(), []byte("cond"))
	if err == nil {
		t.Fatal("want error for counterexample reply")
	}
	if errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatal("counterexample misclassified as transport failure")
	}
	if bcferr.ClassOf(err) != bcferr.ClassUnsafe {
		t.Fatalf("class = %v, want unsafe", bcferr.ClassOf(err))
	}
	cex := bcferr.CounterexampleOf(err)
	if cex[7] != 99 {
		t.Fatalf("cex = %v, want {7:99}", cex)
	}
}

func TestClientRemoteError(t *testing.T) {
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		return &proofrpc.Frame{Type: proofrpc.TError,
			Payload: proofrpc.EncodeErrorPayload(uint32(bcferr.ClassSolverTimeout), "budget exhausted")}
	})
	c := newTestClient(t, endpoint, nil)
	_, err := c.ProveBytes(context.Background(), []byte("cond"))
	if err == nil || errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("want authoritative remote error, got %v", err)
	}
	if bcferr.ClassOf(err) != bcferr.ClassSolverTimeout {
		t.Fatalf("class = %v, want solver-timeout", bcferr.ClassOf(err))
	}
}

func TestClientDeadDaemonUnavailable(t *testing.T) {
	c := newTestClient(t, "unix:"+filepath.Join(t.TempDir(), "nobody-home.sock"), nil)
	start := time.Now()
	_, err := c.ProveBytes(context.Background(), []byte("cond"))
	if !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead daemon took %v to report", elapsed)
	}
}

// A readable frame carrying garbage proof bytes fails the sanity decode:
// one attempt, counted as byzantine, reported unavailable so the loader
// falls back. The client does not resend to the same endpoint.
func TestClientCorruptProofUnavailable(t *testing.T) {
	var requests atomic.Int32
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		requests.Add(1)
		return &proofrpc.Frame{Type: proofrpc.TProofOK, Payload: []byte{proofrpc.SrcSolved, 0xde, 0xad, 0xbe, 0xef}}
	})
	c := newTestClient(t, endpoint, nil)
	_, err := c.ProveBytes(context.Background(), []byte("cond"))
	if !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1", n)
	}
	if n := c.Stats().Byzantine; n != 1 {
		t.Fatalf("byzantine replies = %d, want 1", n)
	}
}

// A connection dropped mid-request fails that request as unavailable
// and takes the lone backend down; the first request after the cooldown
// redials and succeeds.
func TestClientRecoversAfterDroppedConn(t *testing.T) {
	proof := validProof(t)
	var requests atomic.Int32
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		if requests.Add(1) == 1 {
			return nil // first request: connection drops before the reply
		}
		return &proofrpc.Frame{Type: proofrpc.TProofOK, Payload: append([]byte{proofrpc.SrcSolved}, proof...)}
	})
	c := newTestClient(t, endpoint, nil)
	if _, err := c.ProveBytes(context.Background(), []byte("cond")); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("dropped request: err = %v, want ErrRemoteUnavailable", err)
	}
	time.Sleep(prooffleet.DownFor)
	got, err := c.ProveBytes(context.Background(), []byte("cond"))
	if err != nil {
		t.Fatalf("prove after dropped conn: %v", err)
	}
	if string(got) != string(proof) {
		t.Fatal("proof bytes mangled after redial")
	}
}

func TestClientContextCancelled(t *testing.T) {
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame {
		time.Sleep(50 * time.Millisecond)
		return &proofrpc.Frame{Type: proofrpc.TPong}
	})
	c := newTestClient(t, endpoint, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := c.Ping(ctx)
	if !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
}

func TestClientClosed(t *testing.T) {
	endpoint := fakeServer(t, func(f *proofrpc.Frame) *proofrpc.Frame { return &proofrpc.Frame{Type: proofrpc.TPong} })
	c := newTestClient(t, endpoint, nil)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err after close = %v, want ErrRemoteUnavailable", err)
	}
}
