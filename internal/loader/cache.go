package loader

import (
	"container/list"
	"sync"
)

// DefaultProofCacheCap bounds a ProofCache built with NewProofCache.
// Proofs are page-sized (§6.3: 99.4% under 4 KiB), so the default keeps
// the cache around a few megabytes.
const DefaultProofCacheCap = 4096

// ProofCache memoizes proofs by the exact bytes of their condition. The
// verifier's analysis is deterministic, so repeated loads of the same
// program request identical conditions (§7). The cache is bounded:
// least-recently-used entries are evicted beyond the capacity, so a
// stream of distinct programs (the million-user scenario) cannot grow it
// without bound. Safe for concurrent use by multiple loads.
type ProofCache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*list.Element
	order     *list.List // front = most recently used
	flights   map[string]*flight
	hits      int
	misses    int
	evictions int
	coalesced int
}

// flight is one in-progress computation for a key; duplicate callers
// wait on done and share the leader's result.
type flight struct {
	done  chan struct{}
	proof []byte
	err   error
}

type cacheEntry struct {
	key   string
	proof []byte
}

// NewProofCache returns an empty cache with the default capacity.
func NewProofCache() *ProofCache { return NewProofCacheCap(DefaultProofCacheCap) }

// NewProofCacheCap returns an empty cache holding at most capacity
// entries (capacity <= 0 selects the default).
func NewProofCacheCap(capacity int) *ProofCache {
	if capacity <= 0 {
		capacity = DefaultProofCacheCap
	}
	return &ProofCache{
		capacity: capacity,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		flights:  map[string]*flight{},
	}
}

// Get looks up a proof for the exact condition bytes, marking the entry
// as recently used. The returned slice is a defensive copy: callers may
// mutate it (or hand it to an untrusted boundary that does) without
// corrupting the cached certificate.
func (c *ProofCache) Get(cond []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(cond)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return append([]byte(nil), el.Value.(*cacheEntry).proof...), true
}

// Put stores a proof, evicting the least-recently-used entry when the
// cache is full. Both cond and proofBytes are copied, so the caller
// remains free to reuse or mutate its buffers after Put returns.
func (c *ProofCache) Put(cond, proofBytes []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := string(cond) // string conversion copies the condition bytes
	stored := append([]byte(nil), proofBytes...)
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).proof = stored
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, proof: stored})
}

// GetOrCompute returns the cached proof for cond, or runs compute to
// produce it, with singleflight semantics: when several goroutines ask
// for the same missing key concurrently, exactly one runs compute and
// the rest block until it finishes, sharing its result (§7: the solver
// is deterministic, so duplicate work is pure waste — and with a remote
// prover, duplicate wire round-trips too). A successful computation is
// stored in the cache; a failed one is not, so a later caller retries.
//
// hit reports a cache hit; shared reports that the result came from a
// concurrent leader's computation rather than this caller's own. The
// returned proof is a defensive copy in every case.
func (c *ProofCache) GetOrCompute(cond []byte, compute func() ([]byte, error)) (proof []byte, hit, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[string(cond)]; ok {
		c.hits++
		c.order.MoveToFront(el)
		p := append([]byte(nil), el.Value.(*cacheEntry).proof...)
		c.mu.Unlock()
		return p, true, false, nil
	}
	c.misses++
	key := string(cond)
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, true, f.err
		}
		return append([]byte(nil), f.proof...), false, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.proof, f.err = compute()
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, false, false, f.err
	}
	c.Put(cond, f.proof)
	return append([]byte(nil), f.proof...), false, false, nil
}

// CacheStats is a consistent snapshot of a ProofCache's counters.
type CacheStats struct {
	Hits      int
	Misses    int
	Evictions int
	Coalesced int
	Size      int
	Cap       int
}

// HitRate is the fraction of lookups served from the cache, in percent.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Snapshot returns all counters under one lock acquisition, so the
// numbers are mutually consistent even while other loads keep hitting
// the cache.
func (c *ProofCache) Snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Coalesced: c.coalesced,
		Size:      len(c.entries),
		Cap:       c.capacity,
	}
}
