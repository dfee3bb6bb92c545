package proofd

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
)

// startServer runs a server on a Unix socket and returns its endpoint.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s := New(opts)
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
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, "unix:" + sock
}

// dialClient returns a remote proving client for one daemon: a fleet of
// one, so the daemon sees only the frames the test sends.
func dialClient(t *testing.T, endpoint string, reg *obs.Registry) *prooffleet.Fleet {
	t.Helper()
	return newFleetOfOne(t, prooffleet.Options{Endpoints: []string{endpoint}, Obs: reg})
}

// newFleetOfOne builds opts into a fleet, closed at test end.
func newFleetOfOne(t *testing.T, opts prooffleet.Options) *prooffleet.Fleet {
	t.Helper()
	f, err := prooffleet.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// encodedCond builds the wire bytes of a provable condition
// (0 <= var), unique per variable id.
func encodedCond(t *testing.T, varID uint32) []byte {
	t.Helper()
	b, err := bcfenc.EncodeCondition(&bcfenc.Condition{
		Cond: expr.Ule(expr.Const(0, 8), expr.Var(varID, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// falsifiableCond builds the wire bytes of "var <= 0", violated by any
// nonzero assignment.
func falsifiableCond(t *testing.T) []byte {
	t.Helper()
	b, err := bcfenc.EncodeCondition(&bcfenc.Condition{
		Cond: expr.Ule(expr.Var(1, 8), expr.Const(0, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerCacheHierarchy drives one obligation through every layer:
// solved cold, memory-hit warm, disk-hit after a daemon restart with
// the same cache directory.
func TestServerCacheHierarchy(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, endpoint := startServer(t, Options{Store: store, Obs: reg})
	creg := obs.NewRegistry()
	c := dialClient(t, endpoint, creg)

	cond := encodedCond(t, 1)
	p1, err := c.ProveBytes(context.Background(), cond)
	if err != nil {
		t.Fatalf("cold prove: %v", err)
	}
	p2, err := c.ProveBytes(context.Background(), cond)
	if err != nil {
		t.Fatalf("warm prove: %v", err)
	}
	if string(p1) != string(p2) {
		t.Fatal("warm proof differs from cold proof")
	}
	if n := reg.Counter(obs.Label(obs.MDaemonReplies, "source", "solved")).Value(); n != 1 {
		t.Fatalf("solved replies = %d, want 1", n)
	}
	if n := reg.Counter(obs.Label(obs.MDaemonReplies, "source", "mem")).Value(); n != 1 {
		t.Fatalf("mem replies = %d, want 1", n)
	}
	if n := creg.Counter(obs.Label(obs.MRemoteSource, "src", "solved")).Value(); n != 1 {
		t.Fatal("client did not observe the solved source")
	}

	// "Restart": a fresh server, empty memory cache, same disk store.
	store2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	_, endpoint2 := startServer(t, Options{Store: store2, Obs: reg2})
	c2 := dialClient(t, endpoint2, nil)
	p3, err := c2.ProveBytes(context.Background(), cond)
	if err != nil {
		t.Fatalf("post-restart prove: %v", err)
	}
	if string(p3) != string(p1) {
		t.Fatal("disk proof differs from original")
	}
	if n := reg2.Counter(obs.Label(obs.MDaemonReplies, "source", "disk")).Value(); n != 1 {
		t.Fatalf("disk replies = %d, want 1", n)
	}
	if n := reg2.Counter(obs.Label(obs.MDaemonReplies, "source", "solved")).Value(); n != 0 {
		t.Fatalf("restarted daemon re-solved %d obligations, want 0", n)
	}
}

// Identical concurrent obligations must run the solver exactly once:
// singleflight coalesces the in-flight duplicates, the memory cache the
// rest.
func TestServerCoalescesConcurrentDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	_, endpoint := startServer(t, Options{Obs: reg})
	cond := encodedCond(t, 2)

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialClient(t, endpoint, nil)
			_, errs[i] = c.ProveBytes(context.Background(), cond)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if solved := reg.Counter(obs.Label(obs.MDaemonReplies, "source", "solved")).Value(); solved != 1 {
		t.Fatalf("solver ran %d times for one obligation, want 1", solved)
	}
	var total int64
	for _, src := range []string{"solved", "mem", "disk", "coalesced"} {
		total += reg.Counter(obs.Label(obs.MDaemonReplies, "source", src)).Value()
	}
	if total != n {
		t.Fatalf("replies = %d, want %d", total, n)
	}
}

func TestServerCounterexample(t *testing.T) {
	_, endpoint := startServer(t, Options{})
	c := dialClient(t, endpoint, nil)
	_, err := c.ProveBytes(context.Background(), falsifiableCond(t))
	if err == nil || errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("want authoritative counterexample error, got %v", err)
	}
	if bcferr.ClassOf(err) != bcferr.ClassUnsafe {
		t.Fatalf("class = %v, want unsafe", bcferr.ClassOf(err))
	}
	cex := bcferr.CounterexampleOf(err)
	if len(cex) == 0 {
		t.Fatal("no counterexample carried over the wire")
	}
	if v := cex[1]; v == 0 {
		t.Fatalf("cex[1] = 0 does not violate var<=0 (cex: %v)", cex)
	}
}

func TestServerRejectsGarbageCondition(t *testing.T) {
	reg := obs.NewRegistry()
	_, endpoint := startServer(t, Options{Obs: reg})
	c := dialClient(t, endpoint, nil)
	_, err := c.ProveBytes(context.Background(), []byte("not a condition"))
	if err == nil || errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("want authoritative protocol error, got %v", err)
	}
	if bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("class = %v, want protocol", bcferr.ClassOf(err))
	}
	if n := reg.Counter(obs.Label(obs.MDaemonErrors, "class", "protocol")).Value(); n == 0 {
		t.Fatal("daemon error counter not incremented")
	}
}

// Failed obligations (counterexamples, bad conditions) must not poison
// the cache: a later provable obligation with different bytes still
// works, and re-asking the failed one re-reports the failure.
func TestServerFailedObligationsNotCached(t *testing.T) {
	_, endpoint := startServer(t, Options{})
	c := dialClient(t, endpoint, nil)
	bad := falsifiableCond(t)
	for i := 0; i < 2; i++ {
		if _, err := c.ProveBytes(context.Background(), bad); err == nil ||
			bcferr.ClassOf(err) != bcferr.ClassUnsafe {
			t.Fatalf("round %d: err = %v, want unsafe", i, err)
		}
	}
	if _, err := c.ProveBytes(context.Background(), encodedCond(t, 3)); err != nil {
		t.Fatalf("good obligation after failures: %v", err)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	s := New(Options{})
	sock := filepath.Join(t.TempDir(), "bcfd.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	c := dialClient(t, "unix:"+sock, nil)
	if _, err := c.ProveBytes(context.Background(), encodedCond(t, 4)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	// The socket is gone: new requests fail as unavailable, fast.
	if _, err := c.ProveBytes(context.Background(), encodedCond(t, 5)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("post-shutdown err = %v, want ErrRemoteUnavailable", err)
	}
}

// Ping answers without touching the prover.
func TestServerPing(t *testing.T) {
	reg := obs.NewRegistry()
	_, endpoint := startServer(t, Options{Obs: reg})
	c := dialClient(t, endpoint, nil)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(obs.Label(obs.MDaemonRequests, "type", "ping")).Value(); n != 1 {
		t.Fatalf("ping counter = %d, want 1", n)
	}
}
