package proofd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bcf/internal/obs"
	"bcf/internal/prooffleet"
	"bcf/internal/proofrpc"
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
// daemon with no tracer of its own, whose replies carry each request's
// spans back, and checks the merged client trace is one tree: the
// daemon's proofd-prove span carries the client's trace ID and is
// parented on the client's backend-prove span (one per backend attempt,
// under fleet-prove), with the solve span nested below it and a prover
// tier span below that — the single-Perfetto-file acceptance path of
// bcfbench -remote -tracefile.
func TestTraceStitchEndToEnd(t *testing.T) {
	srv := New(Options{Obs: obs.NewRegistry()})
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

	// The caller's load span, as the loader seeds it: every client and
	// daemon span must land under its trace ID.
	load := obs.TraceContext{TraceHi: 0xc11e, TraceLo: 0x17, Span: 1}
	ctx := obs.ContextWithSpan(context.Background(), load)
	for _, varID := range []uint32{1, 2} {
		if _, err := c.ProveBytes(ctx, encodedCond(t, varID)); err != nil {
			t.Fatalf("prove var %d: %v", varID, err)
		}
	}

	events := stitchEvents(t, clientTracer)
	wantTrace := load.TraceIDString()

	// Index the client RPC spans by span_id and collect the daemon side.
	rpcSpans := map[string]obs.TraceEvent{}
	var daemonProves, daemonSolves []obs.TraceEvent
	tierParents := map[string]bool{}
	daemonNamed := false
	for _, e := range events {
		switch {
		case e.Ph == "X" && e.Name == "backend-prove":
			rpcSpans[argString(e, "span_id")] = e
		case e.Ph == "X" && e.Name == "proofd-prove":
			daemonProves = append(daemonProves, e)
		case e.Ph == "X" && e.Name == "solve":
			daemonSolves = append(daemonSolves, e)
		case e.Ph == "X" && (e.Name == "tier1-rewrite" || e.Name == "tier2-bitblast"):
			tierParents[argString(e, "parent_span_id")] = true
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
		// The prover ran under the request's tracer: its tier spans ship
		// too, nested under the solve that ran them.
		if !tierParents[argString(sv, "span_id")] {
			t.Fatalf("no prover tier span is parented on solve %s", argString(sv, "span_id"))
		}
	}
}

// TestTraceStitchTimelineAlignment checks where the fleet places the
// spans a reply carried: the daemon and client sinks have different
// epochs, and the offset that centres the daemon's interval in the round
// trip must put every daemon span inside its parent backend-prove span.
func TestTraceStitchTimelineAlignment(t *testing.T) {
	srv := New(Options{Obs: obs.NewRegistry(), Trace: obs.NewTracer()})
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

	events := stitchEvents(t, clientTracer)
	var rpc *obs.TraceEvent
	var daemon []obs.TraceEvent
	for i, e := range events {
		switch {
		case e.Name == "backend-prove":
			rpc = &events[i]
		case e.Ph == "X" && e.PID == 1000:
			daemon = append(daemon, e)
		}
	}
	if rpc == nil || len(daemon) == 0 {
		t.Fatalf("missing spans: rpc=%v daemon=%d", rpc != nil, len(daemon))
	}
	// Containment by construction, give or take the float rounding of
	// microsecond timestamps.
	const slackUS = 1
	for _, d := range daemon {
		if d.TS < rpc.TS-slackUS || d.TS+d.Dur > rpc.TS+rpc.Dur+slackUS {
			t.Fatalf("daemon span %s [%v, %v]µs outside RPC window [%v, %v]µs",
				d.Name, d.TS, d.TS+d.Dur, rpc.TS, rpc.TS+rpc.Dur)
		}
	}
}

// TestServerReplySpans pins where a daemon's spans go: a traced request
// gets its own spans, and only those, back in its reply, from a server
// with or without a tracer; untraced replies carry none; no request
// fetches spans later; and only the daemon's own tracer (bcfd's
// -tracefile) keeps anything after a reply is written.
func TestServerReplySpans(t *testing.T) {
	// prove sends one obligation on a raw connection and returns the
	// reply's spans, decoded.
	prove := func(t *testing.T, m *proofrpc.MuxConn, varID uint32, tc obs.TraceContext) (obs.ExportedTrace, bool) {
		t.Helper()
		rf, err := m.Do(context.Background(), proofrpc.TProve, encodedCond(t, varID), tc)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Type != proofrpc.TProofOK {
			t.Fatalf("reply %s, want TProofOK", proofrpc.TypeString(rf.Type))
		}
		var ex obs.ExportedTrace
		if len(rf.Spans) == 0 {
			return ex, false
		}
		if err := json.Unmarshal(rf.Spans, &ex); err != nil {
			t.Fatalf("reply spans do not parse: %v", err)
		}
		return ex, true
	}
	dial := func(t *testing.T, opts Options) *proofrpc.MuxConn {
		t.Helper()
		_, endpoint := startServer(t, opts)
		m, err := proofrpc.DialMux("unix", strings.TrimPrefix(endpoint, "unix:"), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}

	// checkOwn fails unless ex holds a proofd-prove, solve and prove span,
	// all under tc's trace ID, with proofd-prove parented on tc's span.
	checkOwn := func(t *testing.T, ex obs.ExportedTrace, tc obs.TraceContext) {
		t.Helper()
		names := map[string]bool{}
		for _, e := range ex.Events {
			names[e.Name] = true
			if got := argString(e, "trace_id"); got != tc.TraceIDString() {
				t.Fatalf("span %s under trace %s, want only the request's own %s", e.Name, got, tc.TraceIDString())
			}
			if e.Name == "proofd-prove" && argString(e, "parent_span_id") != fmt.Sprintf("%016x", tc.Span) {
				t.Fatal("proofd-prove is not parented on the caller's span")
			}
		}
		for _, want := range []string{"proofd-prove", "solve", "prove"} {
			if !names[want] {
				t.Fatalf("reply spans %v lack %s", names, want)
			}
		}
	}

	t.Run("traced-without-tracer", func(t *testing.T) {
		m := dial(t, Options{})
		tc := obs.TraceContext{TraceHi: 1, TraceLo: 0xbcf, Span: 100}
		ex, ok := prove(t, m, 1, tc)
		if !ok {
			t.Fatal("traced request: reply carries no spans")
		}
		checkOwn(t, ex, tc)
	})

	t.Run("nothing-kept", func(t *testing.T) {
		m := dial(t, Options{})
		var counts []int
		for i, id := range []uint32{1, 2, 3} {
			tc := obs.TraceContext{TraceHi: uint64(i + 1), TraceLo: 0xbcf, Span: uint64(100 + i)}
			ex, ok := prove(t, m, id, tc)
			if !ok {
				t.Fatalf("traced request %d: reply carries no spans", i)
			}
			checkOwn(t, ex, tc)
			counts = append(counts, len(ex.Events))
		}
		// Each reply holds one request's spans: nothing accumulates.
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Fatalf("spans per reply %v: replies accumulate earlier requests", counts)
		}
		if _, ok := prove(t, m, 4, obs.TraceContext{}); ok {
			t.Fatal("untraced request got spans back")
		}
		// TProve is the only request: nothing else, a fetch included, is
		// served.
		for typ := uint32(1); typ <= proofrpc.TError; typ++ {
			if typ == proofrpc.TProve {
				continue
			}
			rf, err := m.Do(context.Background(), typ, nil, obs.TraceContext{TraceHi: 1, TraceLo: 0xbcf})
			if err != nil {
				t.Fatal(err)
			}
			if rf.Type != proofrpc.TError || len(rf.Spans) != 0 {
				t.Fatalf("%s request answered %s with %d span bytes, want a bare TError",
					proofrpc.TypeString(typ), proofrpc.TypeString(rf.Type), len(rf.Spans))
			}
		}
	})

	t.Run("daemon-tracer", func(t *testing.T) {
		own := obs.NewTracer().WithProcess(7, "bcfd")
		m := dial(t, Options{Trace: own})
		for id := uint32(1); id <= 2; id++ {
			if _, ok := prove(t, m, id, obs.TraceContext{}); ok {
				t.Fatal("untraced request got spans back")
			}
		}
		untraced := own.Len()
		if untraced == 0 {
			t.Fatal("the daemon's tracer recorded no untraced request")
		}
		tc := obs.TraceContext{TraceHi: 9, TraceLo: 9, Span: 9}
		ex, ok := prove(t, m, 3, tc)
		if !ok {
			t.Fatal("traced request on a daemon with a tracer got no spans back")
		}
		// The daemon's file holds the untraced requests' spans plus a copy
		// of the traced one's, under its own pid; nothing else.
		if got, want := own.Len(), untraced+len(ex.Events); got != want {
			t.Fatalf("daemon tracer holds %d events, want %d", got, want)
		}
		for _, e := range own.Export().Events {
			if e.Ph == "X" && e.PID != 7 {
				t.Fatalf("daemon tracer span %s on pid %d, want 7", e.Name, e.PID)
			}
		}
	})
}
