package loader

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProofCacheLRUEviction(t *testing.T) {
	c := NewProofCacheCap(2)
	c.Put([]byte("a"), []byte("pa"))
	c.Put([]byte("b"), []byte("pb"))
	if _, ok := c.Get([]byte("a")); !ok {
		t.Fatal("a should be cached")
	}
	// a is now most recently used; inserting c must evict b.
	c.Put([]byte("c"), []byte("pc"))
	if _, ok := c.Get([]byte("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if p, ok := c.Get([]byte("a")); !ok || string(p) != "pa" {
		t.Fatal("a should have survived eviction")
	}
	if _, ok := c.Get([]byte("c")); !ok {
		t.Fatal("c should be cached")
	}
	if s := c.Snapshot(); s.Evictions != 1 || s.Hits != 3 || s.Misses != 1 || s.Size != 2 {
		t.Fatalf("snapshot %+v, want 1 eviction, hits/misses/size 3/1/2", s)
	}
}

func TestProofCachePutUpdatesInPlace(t *testing.T) {
	c := NewProofCacheCap(2)
	c.Put([]byte("k"), []byte("v1"))
	c.Put([]byte("k"), []byte("v2"))
	if p, ok := c.Get([]byte("k")); !ok || string(p) != "v2" {
		t.Fatalf("update lost: %q %v", p, ok)
	}
	if c.Snapshot().Size != 1 {
		t.Fatal("duplicate key grew the cache")
	}
}

func TestProofCacheStaysBounded(t *testing.T) {
	c := NewProofCacheCap(8)
	for i := 0; i < 1000; i++ {
		c.Put([]byte(fmt.Sprintf("cond-%d", i)), []byte("p"))
	}
	if s := c.Snapshot(); s.Size != 8 || s.Evictions != 992 || s.Cap != 8 {
		t.Fatalf("snapshot %+v, want size 8, 992 evictions, cap 8", s)
	}
}

// TestProofCacheNoAliasing is the regression test for the slice-aliasing
// bug: Put used to retain the caller's proof buffer and Get used to
// return the cached slice directly, so mutating either side silently
// corrupted the certificate served to every later load.
func TestProofCacheNoAliasing(t *testing.T) {
	c := NewProofCacheCap(4)
	proof := []byte("proof-v1")
	c.Put([]byte("cond"), proof)

	// Mutating the caller's buffer after Put must not reach the cache.
	copy(proof, "XXXXXXXX")
	got, ok := c.Get([]byte("cond"))
	if !ok || string(got) != "proof-v1" {
		t.Fatalf("cache aliased the Put buffer: got %q", got)
	}

	// Mutating the slice returned by Get must not reach the cache either.
	copy(got, "YYYYYYYY")
	again, ok := c.Get([]byte("cond"))
	if !ok || string(again) != "proof-v1" {
		t.Fatalf("cache aliased the Get result: got %q", again)
	}

	// The in-place update path must copy too.
	v2 := []byte("proof-v2")
	c.Put([]byte("cond"), v2)
	copy(v2, "ZZZZZZZZ")
	if got, ok := c.Get([]byte("cond")); !ok || string(got) != "proof-v2" {
		t.Fatalf("update path aliased the Put buffer: got %q", got)
	}
}

func TestProofCacheSnapshot(t *testing.T) {
	c := NewProofCacheCap(2)
	c.Put([]byte("a"), []byte("pa"))
	c.Put([]byte("b"), []byte("pb"))
	c.Put([]byte("c"), []byte("pc")) // evicts a
	c.Get([]byte("b"))
	c.Get([]byte("missing"))
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Evictions != 1 || s.Size != 2 || s.Cap != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if r := s.HitRate(); r != 50 {
		t.Fatalf("hit rate = %v, want 50", r)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty snapshot hit rate should be 0")
	}
}

func TestProofCacheDefaultCap(t *testing.T) {
	if NewProofCache().Snapshot().Cap != DefaultProofCacheCap {
		t.Fatal("default capacity not applied")
	}
	if NewProofCacheCap(0).Snapshot().Cap != DefaultProofCacheCap {
		t.Fatal("zero capacity should select the default")
	}
}

// TestProofCacheSingleflight is the regression test for concurrent
// same-key proving: N goroutines racing on one missing key must run the
// compute function exactly once, and every one of them must observe the
// leader's result.
func TestProofCacheSingleflight(t *testing.T) {
	c := NewProofCache()
	const workers = 16
	var computes atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	sharedOrHit := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, shared, err := c.GetOrCompute([]byte("cond"), func() ([]byte, error) {
				computes.Add(1)
				<-release // hold every other goroutine in the flight
				return []byte("proof"), nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			results[i] = p
			sharedOrHit[i] = hit || shared
		}(i)
	}
	// Let every goroutine reach the cache before the leader finishes.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	leaderless := 0
	for i, p := range results {
		if string(p) != "proof" {
			t.Fatalf("worker %d got %q", i, p)
		}
		if !sharedOrHit[i] {
			leaderless++
		}
	}
	if leaderless != 1 {
		t.Fatalf("%d workers claim to have led the flight, want 1", leaderless)
	}
	if c.Snapshot().Coalesced == 0 {
		t.Fatal("no coalesced lookups recorded")
	}
	// The result must be cached for later callers.
	if _, ok := c.Get([]byte("cond")); !ok {
		t.Fatal("singleflight result not cached")
	}
}

// A failed computation must not poison the cache: the next caller
// retries, and waiters of the failed flight see the same error.
func TestProofCacheSingleflightError(t *testing.T) {
	c := NewProofCache()
	wantErr := errors.New("solver exploded")
	_, _, _, err := c.GetOrCompute([]byte("k"), func() ([]byte, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, ok := c.Get([]byte("k")); ok {
		t.Fatal("failed computation was cached")
	}
	p, hit, shared, err := c.GetOrCompute([]byte("k"), func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || shared || string(p) != "ok" {
		t.Fatalf("retry: p=%q hit=%v shared=%v err=%v", p, hit, shared, err)
	}
}

// GetOrCompute must not alias its return value with the cached bytes.
func TestProofCacheSingleflightNoAliasing(t *testing.T) {
	c := NewProofCache()
	p, _, _, err := c.GetOrCompute([]byte("k"), func() ([]byte, error) {
		return []byte("payload"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	copy(p, "XXXXXXX")
	if got, ok := c.Get([]byte("k")); !ok || string(got) != "payload" {
		t.Fatalf("cache corrupted through the returned slice: %q", got)
	}
}
