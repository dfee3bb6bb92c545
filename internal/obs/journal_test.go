package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestJournalRing(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(JKindRefine, "refiner", "round", int64(i))
	}
	if got := j.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := j.Seq(); got != 10 {
		t.Fatalf("Seq = %d, want 10", got)
	}
	entries := j.Entries()
	for i, e := range entries {
		want := int64(6 + i) // oldest retained is record #7 (value 6)
		if e.Value != want {
			t.Fatalf("entry %d value = %d, want %d", i, e.Value, want)
		}
		if e.Seq != uint64(want)+1 {
			t.Fatalf("entry %d seq = %d, want %d", i, e.Seq, want+1)
		}
	}
}

func TestJournalPartialFill(t *testing.T) {
	j := NewJournal(8)
	j.Record(JKindBreaker, "fleet", "open", 2)
	j.Recordf(JKindFallback, "loader", 1, "backend=%s", "b1")
	if got := j.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	entries := j.Entries()
	if entries[0].Kind != JKindBreaker || entries[1].Detail != "backend=b1" {
		t.Fatalf("unexpected entries: %+v", entries)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(JKindPanic, "proofd", "boom", 0)
	j.Recordf(JKindPanic, "proofd", 0, "boom %d", 1)
	if j.Len() != 0 || j.Seq() != 0 || j.Entries() != nil {
		t.Fatal("nil journal should be empty")
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Entries []JournalEntry `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil journal dump is not JSON: %v", err)
	}
	j.Dump(&buf) // must not panic
}

func TestJournalDumpFormats(t *testing.T) {
	j := NewJournal(8)
	j.Record(JKindLoadFail, "loader", "class=unsafe", 3)
	var txt bytes.Buffer
	j.Dump(&txt)
	if !strings.Contains(txt.String(), "load-failure") || !strings.Contains(txt.String(), "class=unsafe") {
		t.Fatalf("text dump missing content:\n%s", txt.String())
	}
	var buf bytes.Buffer
	if err := j.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Recorded uint64         `json:"recorded"`
		Retained int            `json:"retained"`
		Entries  []JournalEntry `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Recorded != 1 || d.Retained != 1 || len(d.Entries) != 1 {
		t.Fatalf("unexpected dump: %+v", d)
	}
}

func TestRegistryJournalAttachment(t *testing.T) {
	var nilReg *Registry
	if nilReg.Journal() != nil {
		t.Fatal("nil registry must hand out a nil journal")
	}
	nilReg.SetJournal(NewJournal(4)) // no-op, no panic

	reg := NewRegistry()
	if reg.Journal() != nil {
		t.Fatal("fresh registry should have no journal")
	}
	j := NewJournal(4)
	reg.SetJournal(j)
	if reg.Journal() != j {
		t.Fatal("journal did not round-trip through the registry")
	}
	reg.Journal().Record(JKindFallback, "loader", "remote down", 0)
	if j.Len() != 1 {
		t.Fatal("record through registry did not land")
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	reg := NewRegistry()
	reg.SetMaxLabelSeries(4)
	for i := 0; i < 10; i++ {
		reg.Counter(Label("fleet_dispatches_total", "backend", fmt.Sprintf("b%d", i))).Inc()
	}
	snap := reg.Snapshot()
	var series, overflow int64
	for _, c := range snap.Counters {
		if family(c.Name) == "fleet_dispatches_total" {
			series++
			if strings.Contains(c.Name, `other="true"`) {
				overflow = c.Value
			}
		}
	}
	if series != 5 { // 4 admitted + 1 overflow fold
		t.Fatalf("series = %d, want 5 (4 admitted + overflow)", series)
	}
	if overflow != 6 {
		t.Fatalf("overflow series value = %d, want 6", overflow)
	}
	if got := snap.Counter(MLabelsDropped); got != 6 {
		t.Fatalf("%s = %d, want 6", MLabelsDropped, got)
	}

	// Admitted series keep resolving to their original handles.
	c0 := reg.Counter(Label("fleet_dispatches_total", "backend", "b0"))
	c0.Inc()
	if c0.Value() != 2 {
		t.Fatalf("existing series lost its handle: %d", c0.Value())
	}

	// A different family is unaffected, and unlabeled metrics never cap.
	for i := 0; i < 10; i++ {
		reg.Gauge(Label("fleet_breaker_state", "backend", fmt.Sprintf("g%d", i))).Set(1)
		reg.Counter(fmt.Sprintf("plain_metric_%d_total", i)).Inc()
	}
	snap = reg.Snapshot()
	var gaugeSeries int
	for _, g := range snap.Gauges {
		if family(g.Name) == "fleet_breaker_state" {
			gaugeSeries++
		}
	}
	if gaugeSeries != 5 {
		t.Fatalf("gauge series = %d, want 5", gaugeSeries)
	}
	for i := 0; i < 10; i++ {
		if got := snap.Counter(fmt.Sprintf("plain_metric_%d_total", i)); got != 1 {
			t.Fatalf("unlabeled metric %d was capped", i)
		}
	}
}

func TestLabelCapDisabled(t *testing.T) {
	reg := NewRegistry()
	reg.SetMaxLabelSeries(0)
	for i := 0; i < DefaultMaxLabelSeries+10; i++ {
		reg.Counter(Label("x_total", "k", fmt.Sprintf("v%d", i))).Inc()
	}
	if got := reg.Snapshot().Counter(MLabelsDropped); got != 0 {
		t.Fatalf("cap disabled but dropped %d", got)
	}
}

// TestZeroAlloc pins the disabled-telemetry hot paths — nil tracer, nil
// journal, nil registry — at zero allocations per operation. This is
// the contract that lets instrumentation stay inline in production
// code: when nothing is listening, it costs a nil check.
func TestZeroAlloc(t *testing.T) {
	var tr *Tracer
	var j *Journal
	var reg *Registry
	ctx := context.Background()

	cases := []struct {
		name string
		fn   func()
	}{
		{"nil-tracer-span", func() {
			sp := tr.Start(CatRPC, "remote-prove")
			sp.End()
		}},
		{"nil-tracer-span-under", func() {
			sp := tr.StartUnder(TraceContext{TraceHi: 1, Span: 2}, CatRPC, "remote-prove")
			sp.EndArgs(nil)
		}},
		{"nil-tracer-instant", func() { tr.Instant(CatRPC, "breaker-reject", nil) }},
		{"nil-tracer-derive", func() {
			_ = tr.WithProcess(1, "p").WithThread(2, "t").WithParent(TraceContext{TraceHi: 1})
		}},
		{"nil-journal-record", func() { j.Record(JKindFallback, "loader", "fallback", 1) }},
		{"nil-registry-journal-record", func() { reg.Journal().Record(JKindFallback, "loader", "fallback", 1) }},
		{"nil-registry-counter", func() { reg.Counter(MRemoteProofs).Inc() }},
		{"span-context-nil", func() { _ = Span{}.Context() }},
		{"ctx-from-empty", func() { _ = SpanFromContext(ctx) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}

	// A registry without an attached journal must also stay free: the
	// lookup is one atomic load and the nil result no-ops.
	live := NewRegistry()
	if n := testing.AllocsPerRun(200, func() {
		live.Journal().Record(JKindFallback, "loader", "fallback", 1)
	}); n != 0 {
		t.Errorf("registry-without-journal record: %v allocs/op, want 0", n)
	}
}

func BenchmarkDisabledTracing(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(CatRPC, "remote-prove")
		sp.End()
	}
}

func BenchmarkDisabledJournal(b *testing.B) {
	var j *Journal
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(JKindFallback, "loader", "fallback", 1)
	}
}

func BenchmarkEnabledJournal(b *testing.B) {
	j := NewJournal(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(JKindFallback, "loader", "fallback", int64(i))
	}
}
