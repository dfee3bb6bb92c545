package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// atomic implementation must not lose increments (run under -race).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterAddIgnoresNonPositive(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	c.Add(0)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

// TestHistogramConcurrent checks that concurrent Observe calls lose no
// samples: total count, per-bucket counts, and the CAS-maintained sum
// must all be exact once observers quiesce.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 4, 8}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("lat", bounds...)
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i % 10)) // 0..9, spanning every bucket incl. +Inf
			}
		}(w)
	}
	wg.Wait()
	hv, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", hv.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, n := range hv.Counts {
		bucketSum += n
	}
	if bucketSum != hv.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, hv.Count)
	}
	// Each worker observes 0..9 repeated: sum per 10 samples is 45.
	wantSum := float64(workers*perWorker/10) * 45
	if math.Abs(hv.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", hv.Sum, wantSum)
	}
	// 9 lands past the last bound (8): the +Inf bucket must be populated.
	if inf := hv.Counts[len(hv.Bounds)]; inf != workers*perWorker/10 {
		t.Fatalf("+Inf bucket = %d, want %d", inf, workers*perWorker/10)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	hv, _ := r.Snapshot().Histogram("h")
	// Bounds are upper-inclusive: 1 → bucket le=1, 10 → bucket le=10.
	want := []int64{2, 2, 1, 1}
	for i, n := range hv.Counts {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, n, want[i], hv.Counts)
		}
	}
	if hv.Count != 6 {
		t.Fatalf("count = %d, want 6", hv.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	hv := HistogramValue{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 100, 0, 0},
		Count:  100,
	}
	// All mass in (1,2]: the median must land inside that bucket.
	if q := hv.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	if q := hv.Quantile(0.99); q < 1 || q > 2 {
		t.Fatalf("p99 = %v, want within (1,2]", q)
	}
	if q := (HistogramValue{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestObserveDurationAndSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", LatencyBuckets...)
	h.ObserveDuration(3 * time.Millisecond)
	h.Since(time.Now().Add(-2 * time.Millisecond))
	hv, _ := r.Snapshot().Histogram("d")
	if hv.Count != 2 {
		t.Fatalf("count = %d, want 2", hv.Count)
	}
	if hv.Sum < 0.004 || hv.Sum > 1 {
		t.Fatalf("sum = %v, want roughly 5ms", hv.Sum)
	}
}

// TestSnapshotDeterminism: a quiesced registry must render byte-identical
// snapshots — names sorted, no map-iteration nondeterminism.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta_total", "alpha_total", "mid_total"} {
		r.Counter(n).Inc()
	}
	r.Gauge("g2").Set(2)
	r.Gauge("g1").Set(1)
	r.Histogram("hb", 1, 2).Observe(1.5)
	r.Histogram("ha", 1, 2).Observe(0.5)

	enc := func() []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(), enc()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\nvs\n%s", a, b)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q >= %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
	for i := 1; i < len(snap.Histograms); i++ {
		if snap.Histograms[i-1].Name >= snap.Histograms[i].Name {
			t.Fatalf("histograms not sorted: %q >= %q", snap.Histograms[i-1].Name, snap.Histograms[i].Name)
		}
	}
}

// TestPrometheusGolden pins the text exposition format byte-for-byte:
// TYPE lines per family, folded labels merged with le, cumulative
// buckets, _sum/_count series.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("bcf_loads_total").Add(3)
	r.Counter(Label("bcf_load_failures_total", "class", "unsafe")).Add(2)
	r.Gauge("bcf_sessions_active").Set(1)
	h := r.Histogram("bcf_check_seconds", 0.001, 0.01)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `# TYPE bcf_load_failures_total counter
bcf_load_failures_total{class="unsafe"} 2
# TYPE bcf_loads_total counter
bcf_loads_total 3
# TYPE bcf_sessions_active gauge
bcf_sessions_active 1
# TYPE bcf_check_seconds histogram
bcf_check_seconds_bucket{le="0.001"} 1
bcf_check_seconds_bucket{le="0.01"} 2
bcf_check_seconds_bucket{le="+Inf"} 3
bcf_check_seconds_sum 0.5055
bcf_check_seconds_count 3
`
	if got := buf.String(); got != golden {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestPrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Label("stage_seconds", "stage", "check"), 1).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="check",le="1"} 1`,
		`stage_seconds_sum{stage="check"} 0.5`,
		`stage_seconds_count{stage="check"} 1`,
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabels(t *testing.T) {
	if got := Label("x_total", "class", "unsafe"); got != `x_total{class="unsafe"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Labels("x_total", "a", "1", "b", "2"); got != `x_total{a="1",b="2"}` {
		t.Fatalf("Labels = %q", got)
	}
	if got := Labels("x_total", "dangling"); got != "x_total" {
		t.Fatalf("odd kv should return bare name, got %q", got)
	}
	if family(`x_total{a="1"}`) != "x_total" || labelPart(`x_total{a="1"}`) != `a="1"` {
		t.Fatal("family/labelPart mismatch")
	}
}

func TestSnapshotLookupsAndJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Histogram("h", 1).Observe(0.5)
	snap := r.Snapshot()
	if snap.Counter("c") != 7 || snap.Counter("missing") != 0 {
		t.Fatal("counter lookup")
	}
	if _, ok := snap.Histogram("h"); !ok {
		t.Fatal("histogram lookup")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("c") != 7 {
		t.Fatal("round trip lost counter")
	}
}

// TestNilSafety: the disabled telemetry path — nil registry, nil handles,
// nil tracer, zero span — must be inert and must not allocate. This is
// the contract that keeps instrumented hot paths at a nil check when
// telemetry is off.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if s := r.Snapshot(); s == nil || len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty, not nil")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Counter("x")
		c.Inc()
		c.Add(3)
		_ = c.Value()
		g := r.Gauge("x")
		g.Set(1)
		g.Add(-1)
		h := r.Histogram("x")
		h.Observe(1)
		h.ObserveDuration(time.Millisecond)

		var tr *Tracer
		sp := tr.Start("cat", "name")
		sp.End()
		tr.Complete("cat", "name", time.Time{}, time.Time{}, nil)
		_ = tr.WithProcess(1, "p")
		_ = tr.WithThread(1, "t")
		_ = tr.Len()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry path allocates: %v allocs/op", allocs)
	}
}

func BenchmarkDisabledPath(b *testing.B) {
	var r *Registry
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("x").Inc()
		r.Histogram("x").Observe(1)
		sp := tr.Start("cat", "name")
		sp.End()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x", LatencyBuckets...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

// TestStageHistogram checks bucket selection by unit suffix.
func TestStageHistogram(t *testing.T) {
	r := NewRegistry()
	lat, _ := r.StageHistogram(MVerifySeconds), r.StageHistogram(MCondBytes)
	lat.Observe(0.5)
	lv, _ := r.Snapshot().Histogram(MVerifySeconds)
	if len(lv.Bounds) != len(LatencyBuckets) || lv.Bounds[0] != LatencyBuckets[0] {
		t.Fatalf("seconds metric should use LatencyBuckets, got %v", lv.Bounds)
	}
	bv, _ := r.Snapshot().Histogram(MCondBytes)
	if len(bv.Bounds) != len(ByteBuckets) || bv.Bounds[0] != ByteBuckets[0] {
		t.Fatalf("bytes metric should use ByteBuckets, got %v", bv.Bounds)
	}
}
