package prooffleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
	"bcf/internal/expr"
	"bcf/internal/obs"
	"bcf/internal/proofd"
)

// startDaemon runs a real proofd server on a fresh Unix socket.
func startDaemon(t *testing.T, opts proofd.Options) (*proofd.Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "bcfd.sock")
	return startDaemonAt(t, opts, sock)
}

func startDaemonAt(t *testing.T, opts proofd.Options, sock string) (*proofd.Server, string) {
	t.Helper()
	s := proofd.New(opts)
	os.Remove(sock)
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
	return s, "unix:" + sock
}

// encodedCond builds the wire bytes of the provable condition 0 <= var,
// unique per variable id.
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

func newFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFleetProveAcrossBackends(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	_, ep3 := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{
		Endpoints:     []string{ep1, ep2, ep3},
		ProbeInterval: -1,
	})

	ctx := context.Background()
	for i := uint32(1); i <= 24; i++ {
		proof, err := f.ProveBytes(ctx, encodedCond(t, i))
		if err != nil {
			t.Fatalf("cond %d: %v", i, err)
		}
		if len(proof) == 0 {
			t.Fatalf("cond %d: empty proof", i)
		}
	}
	st := f.Stats()
	if st.Dispatches < 24 {
		t.Fatalf("dispatches = %d, want >= 24", st.Dispatches)
	}
	// Rendezvous hashing should spread 24 distinct keys over 3 backends:
	// nobody gets everything.
	for _, b := range st.Backends {
		if b.Dispatches == 24 {
			t.Fatalf("backend %s got every key; rendezvous spread broken", b.Endpoint)
		}
	}
}

// TestFleetRankDeterministicAndStable: the ranking is a pure function of
// (key, endpoint set), and removing one backend never reorders the
// survivors for any key — the rendezvous property that prevents a dead
// backend's keys from stampeding a single neighbor.
func TestFleetRankDeterministicAndStable(t *testing.T) {
	eps := []string{"unix:/tmp/a", "unix:/tmp/b", "unix:/tmp/c", "unix:/tmp/d"}
	f := newFleet(t, Options{Endpoints: eps, ProbeInterval: -1})
	sub := newFleet(t, Options{Endpoints: eps[:3], ProbeInterval: -1})

	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("obligation-%d", i))
		r1 := f.rank(key)
		r2 := f.rank(key)
		for j := range r1 {
			if r1[j].id != r2[j].id {
				t.Fatalf("key %d: rank not deterministic", i)
			}
		}
		// Project the 4-backend ranking onto the 3-backend set: the
		// relative order must match the 3-backend fleet's own ranking.
		var projected []string
		for _, b := range r1 {
			if b.id != eps[3] {
				projected = append(projected, b.id)
			}
		}
		r3 := sub.rank(key)
		for j := range r3 {
			if projected[j] != r3[j].id {
				t.Fatalf("key %d: removing a backend reordered survivors (%v vs %v)",
					i, projected, []string{r3[0].id, r3[1].id, r3[2].id})
			}
		}
	}
}

func TestFleetFailoverFromDeadBackend(t *testing.T) {
	_, live := startDaemon(t, proofd.Options{})
	dead := "unix:" + filepath.Join(t.TempDir(), "nobody-home.sock")
	f := newFleet(t, Options{
		Endpoints:      []string{live, dead},
		ConnectTimeout: 200 * time.Millisecond,
		ProbeInterval:  -1,
		HedgeDelay:     -1,
	})

	ctx := context.Background()
	for i := uint32(1); i <= 16; i++ {
		if _, err := f.ProveBytes(ctx, encodedCond(t, i)); err != nil {
			t.Fatalf("cond %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead backend")
	}
	for _, b := range st.Backends {
		if b.Endpoint == dead && b.State == BreakerClosed && b.BreakerOpens == 0 {
			t.Fatalf("dead backend's breaker never reacted: %+v", b)
		}
	}
}

func TestFleetAllBackendsDeadUnavailable(t *testing.T) {
	dir := t.TempDir()
	f := newFleet(t, Options{
		Endpoints: []string{
			"unix:" + filepath.Join(dir, "a.sock"),
			"unix:" + filepath.Join(dir, "b.sock"),
		},
		ConnectTimeout: 100 * time.Millisecond,
		ProbeInterval:  -1,
		HedgeDelay:     -1,
	})
	_, err := f.ProveBytes(context.Background(), encodedCond(t, 1))
	if !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
}

// TestFleetAuthoritativeCounterexample: a falsifiable condition is an
// authoritative remote outcome — no failover, no fallback signal.
func TestFleetAuthoritativeCounterexample(t *testing.T) {
	_, ep := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{Endpoints: []string{ep}, ProbeInterval: -1})
	_, err := f.ProveBytes(context.Background(), falsifiableCond(t))
	if err == nil {
		t.Fatal("falsifiable condition proved")
	}
	if errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("counterexample surfaced as transport failure: %v", err)
	}
	if !errors.Is(err, bcferr.ErrUnsafe) {
		t.Fatalf("err = %v, want ErrUnsafe", err)
	}
}

// TestFleetAuthoritativeRemoteError: a daemon's TError reply is a
// classified, authoritative outcome — it neither fails over to the other
// backend nor looks like unavailability (which would trigger fallback).
func TestFleetAuthoritativeRemoteError(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{Endpoints: []string{ep1, ep2}, ProbeInterval: -1, HedgeDelay: -1})
	_, err := f.ProveBytes(context.Background(), []byte("not a condition"))
	if err == nil || errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("want authoritative remote error, got %v", err)
	}
	if bcferr.ClassOf(err) != bcferr.ClassProtocol {
		t.Fatalf("class = %v, want protocol", bcferr.ClassOf(err))
	}
	if st := f.Stats(); st.Dispatches != 1 || st.Failovers != 0 {
		t.Fatalf("dispatches=%d failovers=%d, want 1 and 0", st.Dispatches, st.Failovers)
	}
}

// TestFleetContextCancelled: a caller that gives up mid-request gets
// ErrRemoteUnavailable promptly, not after the daemon answers.
func TestFleetContextCancelled(t *testing.T) {
	const delay = 500 * time.Millisecond
	_, ep := startDaemon(t, proofd.Options{ChaosDelay: delay})
	f := newFleet(t, Options{Endpoints: []string{ep}, ProbeInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.ProveBytes(ctx, encodedCond(t, 1))
	if !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Fatalf("cancelled prove took %v, as long as the daemon's reply", elapsed)
	}
}

// TestFleetClosed: after Close, ProveBytes, Ping and Stitch report
// ErrRemoteUnavailable without dialing the daemon again.
func TestFleetClosed(t *testing.T) {
	reg := obs.NewRegistry()
	_, ep := startDaemon(t, proofd.Options{Obs: reg})
	f := newFleet(t, Options{Endpoints: []string{ep}, ProbeInterval: -1, Trace: obs.NewTracer()})
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 1)); err != nil {
		t.Fatal(err)
	}
	conns := reg.Counter(obs.MDaemonConns).Value()
	f.Close()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 2)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("ProveBytes after close: err = %v, want ErrRemoteUnavailable", err)
	}
	if err := f.Ping(ctx); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("Ping after close: err = %v, want ErrRemoteUnavailable", err)
	}
	if err := f.Stitch(ctx); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("Stitch after close: err = %v, want ErrRemoteUnavailable", err)
	}
	// Give a leaked dial time to reach the daemon's accept loop.
	time.Sleep(20 * time.Millisecond)
	if n := reg.Counter(obs.MDaemonConns).Value(); n != conns {
		t.Fatalf("daemon accepted %d connections after Close", n-conns)
	}
}

// TestFleetCloseRacesCalls closes the fleet while goroutines are proving:
// every call ends in a proof or ErrRemoteUnavailable, and no connection
// dialed around Close survives it.
func TestFleetCloseRacesCalls(t *testing.T) {
	_, ep := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{Endpoints: []string{ep}, ProbeInterval: -1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				_, err := f.ProveBytes(context.Background(), encodedCond(t, uint32(g*100+i+1)))
				if err != nil && !errors.Is(err, bcferr.ErrRemoteUnavailable) {
					t.Errorf("prove racing Close: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	f.Close()
	wg.Wait()
	for _, b := range f.backends {
		b.mu.Lock()
		live := b.conn
		b.mu.Unlock()
		if live != nil {
			t.Fatalf("backend %s kept a connection after Close", b.id)
		}
	}
}

func TestSplitEndpoints(t *testing.T) {
	got := SplitEndpoints(" unix:/a.sock, ,tcp:h:1,,b:2 ")
	want := []string{"unix:/a.sock", "tcp:h:1", "b:2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SplitEndpoints = %q, want %q", got, want)
	}
	if got := SplitEndpoints(""); len(got) != 0 {
		t.Fatalf("SplitEndpoints(\"\") = %q, want none", got)
	}
}

func TestFleetBackpressure(t *testing.T) {
	_, ep := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{
		Endpoints:     []string{ep},
		ProbeInterval: -1,
		RatePerSec:    0.001, // refills a token every ~17 minutes
		Burst:         1,
	})
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 1)); err != nil {
		t.Fatalf("first prove: %v", err)
	}
	_, err := f.ProveBytes(ctx, encodedCond(t, 2))
	if !errors.Is(err, bcferr.ErrBackpressure) {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatal("backpressure must not look like unavailability (it would trigger fallback)")
	}
	if st := f.Stats(); st.Backpressure == 0 {
		t.Fatal("backpressure not counted")
	}
}

// TestFleetHedgeSlowPrimary: a key whose primary is deliberately slow
// gets hedged to the fast replica, and the hedge wins.
func TestFleetHedgeSlowPrimary(t *testing.T) {
	_, slow := startDaemon(t, proofd.Options{ChaosDelay: 400 * time.Millisecond})
	_, fast := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{
		Endpoints:     []string{slow, fast},
		ProbeInterval: -1,
		HedgeDelay:    25 * time.Millisecond,
	})

	// Pick a condition whose rendezvous primary is the slow backend.
	var cond []byte
	for i := uint32(1); ; i++ {
		c := encodedCond(t, i)
		if f.rank(c)[0].id == slow {
			cond = c
			break
		}
	}
	start := time.Now()
	proof, err := f.ProveBytes(context.Background(), cond)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof) == 0 {
		t.Fatal("empty proof")
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("prove took %v; hedge did not rescue the slow primary", elapsed)
	}
	st := f.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both > 0", st.Hedges, st.HedgeWins)
	}
}

// TestFleetByzantineBackendFailsOver: a backend returning garbage proof
// bytes is detected by the client-side sanity decode and the key fails
// over to an honest replica.
func TestFleetByzantineBackendFailsOver(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	liar := ep1
	f := newFleet(t, Options{
		Endpoints:     []string{ep1, ep2},
		ProbeInterval: -1,
		HedgeDelay:    -1,
		Fault:         corruptBackend{backend: liar},
	})
	ctx := context.Background()
	for i := uint32(1); i <= 8; i++ {
		proof, err := f.ProveBytes(ctx, encodedCond(t, i))
		if err != nil {
			t.Fatalf("cond %d: %v", i, err)
		}
		if len(proof) == 0 {
			t.Fatalf("cond %d: empty proof", i)
		}
	}
	st := f.Stats()
	if st.Byzantine == 0 {
		t.Fatal("byzantine replies not detected")
	}
	if st.Failovers == 0 {
		t.Fatal("byzantine replies did not fail over")
	}
}

// corruptBackend flips proof bytes from one backend (byzantine prover).
type corruptBackend struct{ backend string }

func (c corruptBackend) FleetDispatch(string, int) error      { return nil }
func (c corruptBackend) FleetDelay(string, int) time.Duration { return 0 }
func (c corruptBackend) FleetProof(b string, _ int, p []byte) []byte {
	if b != c.backend || len(p) == 0 {
		return p
	}
	out := bytes.Clone(p)
	for i := range out {
		out[i] ^= 0xFF
	}
	return out
}

// TestFleetBreakerRecovery: kill a backend, watch its breaker open, then
// restart it on the same socket and watch active probes walk the breaker
// through half-open back to closed.
func TestFleetBreakerRecovery(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "flappy.sock")
	s1, ep := startDaemonAt(t, proofd.Options{}, sock)
	f := newFleet(t, Options{
		Endpoints:       []string{ep},
		ConnectTimeout:  100 * time.Millisecond,
		ProbeInterval:   20 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		HedgeDelay:      -1,
	})
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 1)); err != nil {
		t.Fatalf("warm prove: %v", err)
	}

	// Kill the backend; probes and failed proves should trip the breaker.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	s1.Shutdown(sctx)
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for f.backends[0].breaker.State() != BreakerOpen {
		f.ProveBytes(ctx, encodedCond(t, 2)) // feed the breaker
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened after backend death")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart on the same socket; probes must close the breaker again.
	startDaemonAt(t, proofd.Options{}, sock)
	for f.backends[0].breaker.State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %v after backend restart", f.backends[0].breaker.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := f.ProveBytes(ctx, encodedCond(t, 3)); err != nil {
		t.Fatalf("prove after recovery: %v", err)
	}
	if f.Stats().Backends[0].BreakerOpens == 0 {
		t.Fatal("breaker opens not counted")
	}
}

// TestFleetConcurrentLoad drives many goroutines through one fleet to
// give the race detector something to chew on.
func TestFleetConcurrentLoad(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{
		Endpoints:     []string{ep1, ep2},
		ProbeInterval: 10 * time.Millisecond,
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				cond := encodedCond(t, uint32(g*100+i+1))
				if _, err := f.ProveBytes(context.Background(), cond); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(breakerConfig{failures: 2, cooldown: time.Second, probation: 2, trickle: 1})
	if !b.Allow(now) || b.State() != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	b.Failure(now)
	if b.State() != BreakerClosed {
		t.Fatal("one failure tripped a threshold-2 breaker")
	}
	b.Failure(now)
	if b.State() != BreakerOpen {
		t.Fatal("threshold failures did not trip")
	}
	if b.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker allowed during cooldown")
	}
	// Cooldown over: first Allow takes the probationary slot...
	if !b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("half-open denied first probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatal("not half-open after cooldown")
	}
	// ...and the trickle bound denies a second concurrent one.
	if b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("trickle bound ignored")
	}
	b.Success()
	if !b.Allow(now.Add(2 * time.Second)) {
		t.Fatal("slot not returned after success")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatal("probation quota met but breaker not closed")
	}

	// Half-open failure reopens immediately.
	b.Failure(now.Add(3 * time.Second))
	b.Failure(now.Add(3 * time.Second))
	if !b.Allow(now.Add(5 * time.Second)) {
		t.Fatal("half-open denied after second cooldown")
	}
	b.Failure(now.Add(5 * time.Second))
	if b.State() != BreakerOpen {
		t.Fatal("half-open failure did not reopen")
	}
	if b.Opens() != 3 {
		t.Fatalf("opens = %d, want 3", b.Opens())
	}

	// Forgive returns the slot without judging the backend.
	if !b.Allow(now.Add(10 * time.Second)) {
		t.Fatal("half-open denied after third cooldown")
	}
	b.Forgive()
	if b.State() != BreakerHalfOpen {
		t.Fatal("forgive changed state")
	}
	if !b.Allow(now.Add(10 * time.Second)) {
		t.Fatal("forgiven slot not reusable")
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	a := newAdmission(2, 2, 0, now) // 2/s, burst 2, unlimited inflight
	if err := a.Admit(now); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(now); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(now); !errors.Is(err, bcferr.ErrBackpressure) {
		t.Fatalf("burst exceeded but err = %v", err)
	}
	// Half a second refills one token at 2/s.
	if err := a.Admit(now.Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	b := newAdmission(0, 0, 1, now) // inflight bound only
	if err := b.Admit(now); err != nil {
		t.Fatal(err)
	}
	if err := b.Admit(now); !errors.Is(err, bcferr.ErrBackpressure) {
		t.Fatalf("inflight exceeded but err = %v", err)
	}
	b.Release()
	if err := b.Admit(now); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyDigestPercentile(t *testing.T) {
	d := newLatencyDigest()
	if d.Percentile(99) != 0 {
		t.Fatal("empty digest nonzero")
	}
	for i := 1; i <= 100; i++ {
		d.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := d.Percentile(50); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(99); got < 95*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	// Overflow the ring: old samples age out.
	for i := 0; i < latencyWindow; i++ {
		d.Observe(time.Second)
	}
	if got := d.Percentile(50); got != time.Second {
		t.Fatalf("p50 after overwrite = %v", got)
	}
}
