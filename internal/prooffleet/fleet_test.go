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
	tab := expr.NewTable(0)
	b, err := bcfenc.EncodeCondition(&bcfenc.Condition{
		Cond: tab.Ule(tab.Const(0, 8), tab.Var(varID, 8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func falsifiableCond(t *testing.T) []byte {
	t.Helper()
	tab := expr.NewTable(0)
	b, err := bcfenc.EncodeCondition(&bcfenc.Condition{
		Cond: tab.Ule(tab.Var(1, 8), tab.Const(0, 8)),
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
		Endpoints: []string{ep1, ep2, ep3},
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
	f := newFleet(t, Options{Endpoints: eps})
	sub := newFleet(t, Options{Endpoints: eps[:3]})

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
		if b.Endpoint == dead && !b.Down && b.Opens == 0 {
			t.Fatalf("dead backend never went down: %+v", b)
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
	f := newFleet(t, Options{Endpoints: []string{ep}})
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
	f := newFleet(t, Options{Endpoints: []string{ep1, ep2}})
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
	f := newFleet(t, Options{Endpoints: []string{ep}})
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

// TestFleetClosed: after Close, ProveBytes reports ErrRemoteUnavailable
// without dialing the daemon again.
func TestFleetClosed(t *testing.T) {
	reg := obs.NewRegistry()
	_, ep := startDaemon(t, proofd.Options{Obs: reg})
	f := newFleet(t, Options{Endpoints: []string{ep}, Trace: obs.NewTracer()})
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 1)); err != nil {
		t.Fatal(err)
	}
	conns := reg.Counter(obs.MDaemonConns).Value()
	f.Close()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 2)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("ProveBytes after close: err = %v, want ErrRemoteUnavailable", err)
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
	f := newFleet(t, Options{Endpoints: []string{ep}})
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

// TestFleetByzantineBackendFailsOver: a backend returning garbage proof
// bytes is detected by the client-side sanity decode and the key fails
// over to an honest replica.
func TestFleetByzantineBackendFailsOver(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	liar := ep1
	f := newFleet(t, Options{
		Endpoints: []string{ep1, ep2},
		Fault:     corruptBackend{backend: liar},
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

// TestFleetBackendDownCooldown: one transport failure takes a backend
// down. During the cooldown its keys go to the survivor without touching
// it; after the cooldown a daemon restarted on the same socket serves
// them again.
func TestFleetBackendDownCooldown(t *testing.T) {
	_, survivor := startDaemon(t, proofd.Options{})
	sock := filepath.Join(t.TempDir(), "flappy.sock")
	s1, flappy := startDaemonAt(t, proofd.Options{}, sock)
	reg := obs.NewRegistry()
	reg.SetJournal(obs.NewJournal(0))
	f := newFleet(t, Options{
		Endpoints:      []string{flappy, survivor},
		ConnectTimeout: 100 * time.Millisecond,
		Obs:            reg,
	})
	// Conditions whose rendezvous primary is the flappy backend.
	var keys [][]byte
	for i := uint32(1); len(keys) < 6; i++ {
		if c := encodedCond(t, i); f.rank(c)[0].id == flappy {
			keys = append(keys, c)
		}
	}
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, keys[0]); err != nil {
		t.Fatalf("warm prove: %v", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	s1.Shutdown(sctx)
	cancel()

	// One transport failure: the key fails over and the backend is down.
	if _, err := f.ProveBytes(ctx, keys[1]); err != nil {
		t.Fatalf("prove over a dead primary: %v", err)
	}
	st := f.Stats()
	if !st.Backends[0].Down || st.Backends[0].Opens != 1 {
		t.Fatalf("after one failure: %+v, want down with one open", st.Backends[0])
	}
	if n := reg.Counter(obs.Label(obs.MFleetBreakerOpens, "backend", flappy)).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MFleetBreakerOpens, n)
	}
	if es := reg.Journal().Entries(); len(es) != 1 || es[0].Kind != obs.JKindBreaker {
		t.Fatalf("journal = %+v, want one %s entry", es, obs.JKindBreaker)
	}

	// During the cooldown the dead backend sees no dispatch.
	before := f.Stats()
	for _, k := range keys[2:5] {
		if _, err := f.ProveBytes(ctx, k); err != nil {
			t.Fatalf("prove during cooldown: %v", err)
		}
	}
	after := f.Stats()
	if after.Backends[0].Dispatches != before.Backends[0].Dispatches {
		t.Fatalf("down backend dispatched %d times during its cooldown",
			after.Backends[0].Dispatches-before.Backends[0].Dispatches)
	}
	if got := after.Backends[1].Dispatches - before.Backends[1].Dispatches; got != 3 {
		t.Fatalf("survivor took %d of the 3 keys", got)
	}

	// After the cooldown, a restarted daemon on the same socket serves.
	startDaemonAt(t, proofd.Options{}, sock)
	time.Sleep(DownFor)
	if _, err := f.ProveBytes(ctx, keys[5]); err != nil {
		t.Fatalf("prove after the cooldown: %v", err)
	}
	final := f.Stats()
	if final.Backends[0].Dispatches != after.Backends[0].Dispatches+1 || final.Backends[0].Down {
		t.Fatalf("restarted backend did not serve its key: %+v", final.Backends[0])
	}
	if final.Backends[0].Opens != 1 || final.Failovers != after.Failovers {
		t.Fatalf("opens=%d failovers=%d after recovery, want 1 and %d",
			final.Backends[0].Opens, final.Failovers, after.Failovers)
	}
}

// TestBreakerStateMachine walks a backend's two states, up and down.
// markDown takes it down for DownFor and counts one open; a failure while
// down only extends the cooldown; a failure after the cooldown is a new
// open. A cancelled context is not a failure. A fleet whose every backend
// is down answers ErrRemoteUnavailable without dispatching.
func TestBreakerStateMachine(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	reg.SetJournal(obs.NewJournal(0))
	f := newFleet(t, Options{
		Endpoints: []string{
			"unix:" + filepath.Join(dir, "a.sock"),
			"unix:" + filepath.Join(dir, "b.sock"),
		},
		ConnectTimeout: 100 * time.Millisecond,
		Obs:            reg,
	})
	b := f.backends[0]
	if b.down(time.Now()) || b.opens.Load() != 0 {
		t.Fatal("fresh backend is down")
	}

	// A cancelled caller says nothing about the backends.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ProveBytes(cctx, encodedCond(t, 1)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("cancelled prove: err = %v, want ErrRemoteUnavailable", err)
	}
	for _, bs := range f.Stats().Backends {
		if bs.Down || bs.Opens != 0 {
			t.Fatalf("cancelled context took a backend down: %+v", bs)
		}
	}

	// Up → down: counted once, journalled once, down for DownFor.
	t0 := time.Now()
	f.markDown(b, errors.New("boom"))
	if !b.down(time.Now()) || b.opens.Load() != 1 {
		t.Fatalf("after markDown: down=%v opens=%d, want down with one open", b.down(time.Now()), b.opens.Load())
	}
	if b.down(t0.Add(DownFor + time.Second)) {
		t.Fatal("cooldown outlasts DownFor")
	}
	// Down → down: the cooldown moves, the open count does not.
	first := b.downUntil.Load()
	f.markDown(b, errors.New("again"))
	if b.opens.Load() != 1 || b.downUntil.Load() < first {
		t.Fatalf("failure while down: opens=%d, cooldown end %d → %d", b.opens.Load(), first, b.downUntil.Load())
	}
	if n := reg.Counter(obs.Label(obs.MFleetBreakerOpens, "backend", b.id)).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MFleetBreakerOpens, n)
	}
	if es := reg.Journal().Entries(); len(es) != 1 || es[0].Kind != obs.JKindBreaker {
		t.Fatalf("journal = %+v, want one %s entry", es, obs.JKindBreaker)
	}
	// Cooldown over, then a new failure: a second open.
	b.downUntil.Store(time.Now().Add(-time.Nanosecond).UnixNano())
	if b.down(time.Now()) {
		t.Fatal("backend still down after its cooldown")
	}
	f.markDown(b, errors.New("relapse"))
	if !b.down(time.Now()) || b.opens.Load() != 2 {
		t.Fatalf("failure after the cooldown: opens=%d, want 2", b.opens.Load())
	}

	// Every backend down: unavailable, and nothing is dialed.
	f.markDown(f.backends[1], errors.New("boom"))
	before := f.Stats().Dispatches
	if _, err := f.ProveBytes(context.Background(), encodedCond(t, 2)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("all down: err = %v, want ErrRemoteUnavailable", err)
	}
	if d := f.Stats().Dispatches - before; d != 0 {
		t.Fatalf("all-down fleet dispatched %d times", d)
	}
}

// TestFleetBreakerRecovery: kill the only backend of a fleet of one and
// watch one failed prove take it down; while down the fleet answers
// ErrRemoteUnavailable without dispatching; once the daemon is restarted
// on the same socket and the cooldown has passed, it serves again.
func TestFleetBreakerRecovery(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "flappy.sock")
	s1, ep := startDaemonAt(t, proofd.Options{}, sock)
	f := newFleet(t, Options{
		Endpoints:      []string{ep},
		ConnectTimeout: 100 * time.Millisecond,
	})
	ctx := context.Background()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 1)); err != nil {
		t.Fatalf("warm prove: %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	s1.Shutdown(sctx)
	cancel()
	if _, err := f.ProveBytes(ctx, encodedCond(t, 2)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("prove on a dead backend: err = %v, want ErrRemoteUnavailable", err)
	}
	st := f.Stats()
	if !st.Backends[0].Down || st.Backends[0].Opens != 1 {
		t.Fatalf("after backend death: %+v, want down with one open", st.Backends[0])
	}

	// Restarted, but still inside the cooldown: not dialed.
	startDaemonAt(t, proofd.Options{}, sock)
	if _, err := f.ProveBytes(ctx, encodedCond(t, 3)); !errors.Is(err, bcferr.ErrRemoteUnavailable) {
		t.Fatalf("prove during the cooldown: err = %v, want ErrRemoteUnavailable", err)
	}
	if d := f.Stats().Dispatches; d != st.Dispatches {
		t.Fatalf("down backend dispatched %d times during its cooldown", d-st.Dispatches)
	}

	time.Sleep(DownFor)
	if _, err := f.ProveBytes(ctx, encodedCond(t, 3)); err != nil {
		t.Fatalf("prove after recovery: %v", err)
	}
	final := f.Stats()
	if final.Backends[0].Down || final.Backends[0].Opens != 1 {
		t.Fatalf("after recovery: %+v, want up with one open", final.Backends[0])
	}
}

// TestFleetConcurrentLoad drives many goroutines through one fleet to
// give the race detector something to chew on.
func TestFleetConcurrentLoad(t *testing.T) {
	_, ep1 := startDaemon(t, proofd.Options{})
	_, ep2 := startDaemon(t, proofd.Options{})
	f := newFleet(t, Options{
		Endpoints: []string{ep1, ep2},
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
