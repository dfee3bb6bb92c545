package main

import (
	"math"
	"math/rand/v2"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bcf/internal/corpus"
	"bcf/internal/loader"
)

// maxFaults bounds how many fault messages a run keeps for its report.
const maxFaults = 8

// permutation is the load order of one pass. stream separates the
// set-up, measured and traced loops of one seed.
func permutation(seed int64, stream uint64, pass, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), stream<<32|uint64(pass))).Perm(n)
}

// passState is one pass of a closed loop.
type passState struct {
	perm  []int
	cache *loader.ProofCache
	done  int
	tally tally
}

// closedLoop drives loader.Load from clients goroutines, each issuing
// its next load only when its previous verdict has returned. Loads are
// numbered globally; load i is position i%n of pass i/n, so passes
// follow one another without a barrier. With a deadline, run may be
// called again with a later one: the loop resumes where it stopped,
// mid-pass.
type closedLoop struct {
	w       *workload
	rig     *rig
	seed    int64
	stream  uint64
	clients int
	// limit stops the loop after that many loads; zero runs until deadline.
	limit    int
	deadline time.Time

	next atomic.Int64

	mu       sync.Mutex
	passes   map[int]*passState
	complete []tally // verdict totals of every finished pass
	faultLog
}

// run drives the loop to its limit or deadline and returns the latency
// of every load it ran.
func (c *closedLoop) run() []time.Duration {
	if c.passes == nil {
		c.passes = map[int]*passState{}
	}
	lats := make([][]time.Duration, c.clients)
	var wg sync.WaitGroup
	for k := range lats {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lats[k] = c.client()
		}(k)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

func (c *closedLoop) client() []time.Duration {
	var lat []time.Duration
	n := len(c.w.pass)
	for {
		// The deadline is checked before a load number is taken, so no
		// number is skipped and every pass the loop starts can finish.
		if c.limit == 0 && !time.Now().Before(c.deadline) {
			return lat
		}
		i := int(c.next.Add(1) - 1)
		if c.limit > 0 && i >= c.limit {
			return lat
		}
		ps := c.pass(i / n)
		e := c.w.pass[ps.perm[i%n]]
		t0 := time.Now()
		res := loader.Load(e.prog, c.w.options(ps.cache, c.rig))
		lat = append(lat, time.Since(t0))
		got := outcome(res.Accepted, res.Err, res.Rounds)
		c.finish(i/n, ps, got, fault(e, got, res.Err, res.RemoteFallbacks))
	}
}

func (c *closedLoop) pass(p int) *passState {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.passes[p]
	if ps == nil {
		ps = &passState{perm: permutation(c.seed, c.stream, p, len(c.w.pass))}
		if c.w.cached {
			ps.cache = loader.NewProofCache()
		}
		c.passes[p] = ps
	}
	return ps
}

func (c *closedLoop) finish(p int, ps *passState, got corpus.Outcome, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.note(msg)
	ps.tally[got]++
	ps.done++
	if ps.done == len(c.w.pass) {
		c.complete = append(c.complete, ps.tally)
		delete(c.passes, p)
	}
}

// faultLog counts failed loads and keeps the first few messages.
type faultLog struct {
	Failed int      `json:"failed"`
	Faults []string `json:"faults,omitempty"`
}

// note records one failure; "" means none.
func (f *faultLog) note(msg string) {
	if msg == "" {
		return
	}
	f.Failed++
	if len(f.Faults) < maxFaults {
		f.Faults = append(f.Faults, msg)
	}
}

// merge takes over another log's failures.
func (f *faultLog) merge(o faultLog) {
	f.Failed += o.Failed
	for _, m := range o.Faults {
		if len(f.Faults) < maxFaults {
			f.Faults = append(f.Faults, m)
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounter reads one cumulative runtime/metrics counter without
// allocating.
type heapCounter struct{ s []metrics.Sample }

func newHeapCounter(name string) *heapCounter {
	return &heapCounter{s: []metrics.Sample{{Name: name}}}
}

func (h *heapCounter) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}
