package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceContextValidity(t *testing.T) {
	if (TraceContext{}).Valid() {
		t.Fatal("zero context must be invalid")
	}
	if !(TraceContext{TraceLo: 1}).Valid() || !(TraceContext{TraceHi: 1}).Valid() {
		t.Fatal("nonzero trace ID must be valid")
	}
	tc := TraceContext{TraceHi: 0xabc, TraceLo: 0xdef}
	if got := tc.TraceIDString(); got != "0000000000000abc0000000000000def" {
		t.Fatalf("TraceIDString = %q", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	base := context.Background()
	if got := SpanFromContext(base); got.Valid() {
		t.Fatal("empty context must yield zero TraceContext")
	}
	tc := TraceContext{TraceHi: 1, TraceLo: 2, Span: 3}
	ctx := ContextWithSpan(base, tc)
	if got := SpanFromContext(ctx); got != tc {
		t.Fatalf("round trip = %+v, want %+v", got, tc)
	}
	if ContextWithSpan(base, TraceContext{}) != base {
		t.Fatal("invalid context should not wrap")
	}
}

// collect unmarshals the tracer's JSON output.
func collect(t *testing.T, tr *Tracer) []TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	return tf.TraceEvents
}

// spanByName finds the first complete event with the given name.
func spanByName(t *testing.T, evs []TraceEvent, name string) TraceEvent {
	t.Helper()
	for _, e := range evs {
		if e.Ph == "X" && e.Name == name {
			return e
		}
	}
	t.Fatalf("no span named %q in %d events", name, len(evs))
	return TraceEvent{}
}

func TestSpanIdentityArgs(t *testing.T) {
	tr := NewTracer()
	parent := tr.Start(CatLoad, "load")
	if !parent.Context().Valid() {
		t.Fatal("tracer must mint a nonzero trace ID")
	}
	child := tr.StartUnder(parent.Context(), CatRPC, "remote-prove")
	child.End()
	parent.End()

	evs := collect(t, tr)
	pe := spanByName(t, evs, "load")
	ce := spanByName(t, evs, "remote-prove")
	want := parent.Context().TraceIDString()
	if pe.Args["trace_id"] != want || ce.Args["trace_id"] != want {
		t.Fatalf("trace ids: parent=%v child=%v want %v", pe.Args["trace_id"], ce.Args["trace_id"], want)
	}
	if pe.Args["span_id"] == nil || pe.Args["span_id"] == ce.Args["span_id"] {
		t.Fatalf("span ids must be distinct and present: %v vs %v", pe.Args["span_id"], ce.Args["span_id"])
	}
	if ce.Args["parent_span_id"] != pe.Args["span_id"] {
		t.Fatalf("child parent_span_id = %v, want %v", ce.Args["parent_span_id"], pe.Args["span_id"])
	}
	if _, ok := pe.Args["parent_span_id"]; ok {
		t.Fatal("root span must not carry parent_span_id")
	}
}

func TestWithParentRecordsUnderRemoteTrace(t *testing.T) {
	client := NewTracer()
	rpc := client.Start(CatRPC, "remote-prove")
	tc := rpc.Context()

	daemon := NewTracer() // its own (different) trace ID
	h := daemon.WithParent(tc)
	sp := h.StartArgs(CatProve, "proofd-prove", map[string]any{"src": "disk"})
	inner := h.StartUnder(sp.Context(), CatProve, "disk-lookup")
	inner.End()
	sp.End()
	rpc.End()

	evs := collect(t, daemon)
	de := spanByName(t, evs, "proofd-prove")
	if de.Args["trace_id"] != tc.TraceIDString() {
		t.Fatalf("daemon span trace_id = %v, want caller's %v", de.Args["trace_id"], tc.TraceIDString())
	}
	if de.Args["parent_span_id"] != spanIDString(tc.Span) {
		t.Fatalf("daemon span parent = %v, want caller span %v", de.Args["parent_span_id"], spanIDString(tc.Span))
	}
	ie := spanByName(t, evs, "disk-lookup")
	if ie.Args["parent_span_id"] != de.Args["span_id"] {
		t.Fatal("inner daemon span must nest under the daemon request span")
	}

	// A span reported afterwards on a parented handle carries the trace
	// identity too.
	now := time.Now()
	h.Complete(CatProve, "mem-hit", now.Add(-time.Millisecond), now, nil)
	evs = collect(t, daemon)
	if me := spanByName(t, evs, "mem-hit"); me.Args["trace_id"] != tc.TraceIDString() ||
		me.Args["parent_span_id"] != spanIDString(tc.Span) {
		t.Fatalf("completed span args %v, want the caller's trace and span", me.Args)
	}
}

func TestExportAndMerge(t *testing.T) {
	client := NewTracer()
	rpc := client.Start(CatRPC, "remote-prove")

	// The daemon records one traced request in a tracer of its own and
	// exports it whole; its own tracer keeps a copy under its pid.
	daemon := NewTracer().WithProcess(7, "bcfd")
	own := daemon.Start(CatProve, "unrelated")
	own.End()
	req := NewTracer().WithParent(rpc.Context())
	sp := req.Start(CatProve, "proofd-prove")
	sp.End()
	rpc.End()

	ex := req.Export()
	if len(ex.Events) != 1 || ex.Events[0].Name != "proofd-prove" {
		t.Fatalf("export = %+v, want exactly the request's span", ex.Events)
	}
	if ex.StartUnixNano == 0 {
		t.Fatal("export must carry the sink epoch")
	}
	daemon.Join(ex)
	if de := spanByName(t, collect(t, daemon), "proofd-prove"); de.PID != 7 {
		t.Fatalf("joined span pid = %d, want the daemon's 7", de.PID)
	}

	// JSON round trip (the wire form inside a traced reply).
	blob, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back ExportedTrace
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	client.Merge(back, 1000, "bcfd:test", 0)
	evs := collect(t, client)
	de := spanByName(t, evs, "proofd-prove")
	if de.PID != 1000 {
		t.Fatalf("merged span pid = %d, want 1000", de.PID)
	}
	re := spanByName(t, evs, "remote-prove")
	if de.Args["parent_span_id"] != re.Args["span_id"] {
		t.Fatal("merged daemon span lost its parent link")
	}
	// Process-name metadata for the merged pid.
	var named bool
	for _, e := range evs {
		if e.Ph == "M" && e.PID == 1000 && e.Name == "process_name" {
			named = true
		}
	}
	if !named {
		t.Fatal("merge must label the remote process track")
	}

	// Nil client merge must not panic; nil daemon export is empty.
	var nilT *Tracer
	nilT.Merge(back, 1, "x", 0)
	nilT.Join(back)
	if got := nilT.Export(); len(got.Events) != 0 {
		t.Fatal("nil export must be empty")
	}
}

func TestMergeClockOffset(t *testing.T) {
	client := NewTracer()
	ex := ExportedTrace{
		StartUnixNano: time.Now().Add(2 * time.Second).UnixNano(), // daemon clock 2s ahead
		Events: []TraceEvent{{
			Name: "proofd-prove", Ph: "X", TS: 100, Dur: 50, PID: 0, TID: 0,
			Args: map[string]any{"trace_id": TraceContext{TraceHi: 1, TraceLo: 2}.TraceIDString()},
		}},
	}
	client.Merge(ex, 1000, "bcfd", 2*time.Second)
	evs := collect(t, client)
	de := spanByName(t, evs, "proofd-prove")
	// With the offset corrected the event should land near the client
	// epoch (within a second of µs 0..1e6), not 2 seconds in the future.
	if de.TS < -1e6 || de.TS > 1e6 {
		t.Fatalf("offset-corrected TS = %v µs, want near zero", de.TS)
	}
}

func TestSpanContextCrossesGoroutines(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start(CatLoad, "load")
	ctx := ContextWithSpan(context.Background(), sp.Context())
	done := make(chan TraceContext, 1)
	go func() { done <- SpanFromContext(ctx) }()
	if got := <-done; got != sp.Context() {
		t.Fatalf("context did not survive goroutine hop: %+v", got)
	}
	sp.End()
}
