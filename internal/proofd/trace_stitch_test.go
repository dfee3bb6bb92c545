package proofd

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"bcf/internal/obs"
	"bcf/internal/prooffleet"
)

// stitchEvents runs the client tracer through WriteJSON and back — the
// exact bytes a -tracefile run would produce — so the assertions cover
// the serialized form Perfetto loads, not just in-memory state.
func stitchEvents(t *testing.T, tr *obs.Tracer) []obs.TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	return tf.TraceEvents
}

func argString(e obs.TraceEvent, key string) string {
	s, _ := e.Args[key].(string)
	return s
}

// TestTraceStitchEndToEnd drives real obligations over TCP through a
// daemon with its own tracer, ships the daemon's spans back, and checks
// the merged client trace is one tree: the daemon's proofd-prove span
// carries the client's trace ID and is parented on the client's
// backend-prove span (one per backend attempt, under fleet-prove), with
// the solve span nested below it — the single-Perfetto-file acceptance
// path of bcfbench -remote -tracefile.
func TestTraceStitchEndToEnd(t *testing.T) {
	daemonTracer := obs.NewTracerCap(0).WithProcess(1, "bcfd")
	srv := New(Options{Obs: obs.NewRegistry(), Trace: daemonTracer})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	clientTracer := obs.NewTracer().WithProcess(2, "client")
	c := newFleetOfOne(t, prooffleet.Options{
		Endpoints: []string{"tcp:" + l.Addr().String()},
		Trace:     clientTracer,
	})

	ctx := context.Background()
	for _, varID := range []uint32{1, 2} {
		if _, err := c.ProveBytes(ctx, encodedCond(t, varID)); err != nil {
			t.Fatalf("prove var %d: %v", varID, err)
		}
	}
	if err := c.Stitch(ctx); err != nil {
		t.Fatalf("stitch: %v", err)
	}

	events := stitchEvents(t, clientTracer)
	wantHi, wantLo := clientTracer.TraceID()
	wantTrace := obs.TraceContext{TraceHi: wantHi, TraceLo: wantLo}.TraceIDString()

	// Index the client RPC spans by span_id and collect the daemon side.
	rpcSpans := map[string]obs.TraceEvent{}
	var daemonProves, daemonSolves []obs.TraceEvent
	daemonNamed := false
	for _, e := range events {
		switch {
		case e.Ph == "X" && e.Name == "backend-prove":
			rpcSpans[argString(e, "span_id")] = e
		case e.Ph == "X" && e.Name == "proofd-prove":
			daemonProves = append(daemonProves, e)
		case e.Ph == "X" && e.Name == "solve":
			daemonSolves = append(daemonSolves, e)
		case e.Ph == "M" && e.Name == "process_name" && e.PID == 1000:
			daemonNamed = true
		}
	}
	if len(rpcSpans) != 2 {
		t.Fatalf("backend-prove spans = %d, want 2", len(rpcSpans))
	}
	if len(daemonProves) != 2 {
		t.Fatalf("merged proofd-prove spans = %d, want 2", len(daemonProves))
	}
	if !daemonNamed {
		t.Fatal("merged trace has no process_name metadata for the daemon track")
	}

	proveIDs := map[string]bool{}
	for _, dp := range daemonProves {
		if got := argString(dp, "trace_id"); got != wantTrace {
			t.Fatalf("daemon span trace_id = %s, want %s", got, wantTrace)
		}
		parent := argString(dp, "parent_span_id")
		if _, ok := rpcSpans[parent]; !ok {
			t.Fatalf("daemon proofd-prove parent_span_id %q is not a client RPC span", parent)
		}
		if dp.PID != 1000 {
			t.Fatalf("merged daemon span pid = %d, want 1000", dp.PID)
		}
		proveIDs[argString(dp, "span_id")] = true
	}
	// Both obligations were cold, so each proofd-prove solved; the solve
	// spans must nest under their proofd-prove parents, same trace.
	if len(daemonSolves) != 2 {
		t.Fatalf("merged solve spans = %d, want 2", len(daemonSolves))
	}
	for _, sv := range daemonSolves {
		if got := argString(sv, "trace_id"); got != wantTrace {
			t.Fatalf("solve span trace_id = %s, want %s", got, wantTrace)
		}
		if parent := argString(sv, "parent_span_id"); !proveIDs[parent] {
			t.Fatalf("solve span parent %q is not a proofd-prove span", parent)
		}
	}
}

// TestTraceStitchClockSkew plants a deliberately skewed view of the
// daemon clock by checking Merge places shipped events near the client
// RPC window: even when daemon and client epochs differ, the stitched
// daemon span must start no earlier than its parent RPC span began
// (stitching exists so the two timelines line up in one file).
func TestTraceStitchTimelineAlignment(t *testing.T) {
	daemonTracer := obs.NewTracerCap(0)
	srv := New(Options{Obs: obs.NewRegistry(), Trace: daemonTracer})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	clientTracer := obs.NewTracer()
	c := newFleetOfOne(t, prooffleet.Options{
		Endpoints: []string{"tcp:" + l.Addr().String()},
		Trace:     clientTracer,
	})

	ctx := context.Background()
	if _, err := c.ProveBytes(ctx, encodedCond(t, 7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Stitch(ctx); err != nil {
		t.Fatal(err)
	}

	events := stitchEvents(t, clientTracer)
	var rpc, daemon *obs.TraceEvent
	for i := range events {
		switch events[i].Name {
		case "backend-prove":
			rpc = &events[i]
		case "proofd-prove":
			daemon = &events[i]
		}
	}
	if rpc == nil || daemon == nil {
		t.Fatalf("missing spans: rpc=%v daemon=%v", rpc != nil, daemon != nil)
	}
	// Same-host clocks, so the corrected daemon timestamp must land
	// within the RPC span give or take the RTT estimation error; 10ms is
	// orders of magnitude above loopback RTT.
	const slackUS = 10_000
	if daemon.TS < rpc.TS-slackUS || daemon.TS > rpc.TS+rpc.Dur+slackUS {
		t.Fatalf("daemon span at %vµs outside RPC window [%v, %v]µs (+/- %vµs)",
			daemon.TS, rpc.TS, rpc.TS+rpc.Dur, slackUS)
	}
}
