package proofd

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"bcf/internal/proofrpc"
)

// TestDrainFinishesInflightProve is the graceful-drain contract: a
// Shutdown that arrives while a prove is inflight must let the prove
// finish and deliver the proof to the waiting client, not sever the
// connection. (cmd/bcfd wires SIGTERM to exactly this Shutdown path.)
func TestDrainFinishesInflightProve(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{
		Store: store,
		// Hold the prove long enough for Shutdown to land mid-flight.
		ChaosDelay: 300 * time.Millisecond,
	})
	sock := filepath.Join(dir, "bcfd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	cond := encodedCond(t, 7)
	c := dialClient(t, "unix:"+sock, nil)
	proveDone := make(chan error, 1)
	var proof []byte
	go func() {
		var perr error
		proof, perr = c.ProveBytes(context.Background(), cond)
		proveDone <- perr
	}()

	// Wait until the prove is actually inflight (ChaosDelay holds it
	// there), then drain.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prove never became inflight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if err := <-proveDone; err != nil {
		t.Fatalf("inflight prove during drain failed: %v", err)
	}
	if len(proof) == 0 {
		t.Fatal("inflight prove returned empty proof")
	}

	// The drained daemon must have flushed the proof to the disk store
	// before exiting: a fresh server over the same store serves it from
	// disk.
	if _, ok := store.Get(CacheKey(cond)); !ok {
		t.Fatal("proof not flushed to disk store during drain")
	}
}

// TestServerConcurrentMuxRequests: the rewritten per-connection
// dispatcher must answer interleaved requests on one connection out of
// order — a slow prove does not block a ping behind it.
func TestServerConcurrentMuxRequests(t *testing.T) {
	s := New(Options{ChaosDelay: 200 * time.Millisecond})
	sock := filepath.Join(t.TempDir(), "bcfd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-done
	})

	m, err := proofrpc.DialMux("unix", sock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	proveDone := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, proofrpc.TProve, encodedCond(t, 9))
		proveDone <- err
	}()

	// The ping must come back while the prove is still being held by
	// ChaosDelay.
	start := time.Now()
	if err := m.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("ping waited %v behind a slow prove; connection is not multiplexed", elapsed)
	}
	if err := <-proveDone; err != nil {
		t.Fatalf("prove: %v", err)
	}
}
