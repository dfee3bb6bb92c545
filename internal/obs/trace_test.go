package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"
)

// chromeEvent mirrors the trace-event schema for validation: the fields
// Perfetto / chrome://tracing require to place an event on the timeline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  *int64         `json:"pid"`
	TID  *int64         `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func decodeTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	return ct
}

// TestTraceSchema validates the emitted JSON against the Chrome
// trace-event contract: every event has name/ph/ts/pid/tid, complete
// events ("X") carry a duration, and metadata events carry a name arg.
func TestTraceSchema(t *testing.T) {
	tr := NewTracer()
	p := tr.WithProcess(3, "prog-3").WithThread(1, "kernel")
	sp := p.StartArgs("refine", "round", map[string]any{"round": 0})
	time.Sleep(time.Millisecond)
	sp.EndArgs(map[string]any{"granted": true})

	ct := decodeTrace(t, tr)
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	var sawX, sawProcMeta, sawThreadMeta bool
	for _, e := range ct.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", e)
		}
		if e.TS == nil || e.PID == nil || e.TID == nil {
			t.Fatalf("event missing ts/pid/tid: %+v", e)
		}
		switch e.Ph {
		case "X":
			sawX = true
			if e.Dur <= 0 {
				t.Fatalf("complete event without duration: %+v", e)
			}
			if *e.PID != 3 || *e.TID != 1 {
				t.Fatalf("span not keyed to derived pid/tid: %+v", e)
			}
			if e.Args["round"] != float64(0) || e.Args["granted"] != true {
				t.Fatalf("span args not merged: %v", e.Args)
			}
		case "M":
			switch e.Name {
			case "process_name":
				sawProcMeta = true
				if e.Args["name"] != "prog-3" {
					t.Fatalf("process metadata: %v", e.Args)
				}
			case "thread_name":
				sawThreadMeta = true
				if e.Args["name"] != "kernel" {
					t.Fatalf("thread metadata: %v", e.Args)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if !sawX || !sawProcMeta || !sawThreadMeta {
		t.Fatalf("missing event kinds: X=%v procM=%v thrM=%v", sawX, sawProcMeta, sawThreadMeta)
	}
}

// TestTraceMetadataDedup: deriving the same (pid,tid) repeatedly must
// emit process_name/thread_name metadata only once.
func TestTraceMetadataDedup(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 5; i++ {
		tr.WithProcess(1, "p1").WithThread(2, "t2")
	}
	ct := decodeTrace(t, tr)
	meta := 0
	for _, e := range ct.TraceEvents {
		if e.Ph == "M" {
			meta++
		}
	}
	if meta != 2 {
		t.Fatalf("metadata events = %d, want 2 (one process_name, one thread_name)", meta)
	}
}

// TestTraceSharedSink: handles derived from one tracer write into one
// event stream, concurrently, without losing events (run under -race).
func TestTraceSharedSink(t *testing.T) {
	tr := NewTracer()
	const workers, spans = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.WithProcess(w+1, "")
			for i := 0; i < spans; i++ {
				h.Start("cat", "s").End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != workers*spans {
		t.Fatalf("events = %d, want %d", got, workers*spans)
	}
}

// TestTraceComplete: a span recorded after the fact lands at the start
// and duration it was given, with its args and trace identity.
func TestTraceComplete(t *testing.T) {
	tr := NewTracer().WithThread(1, "kernel")
	start := time.Now().Add(time.Millisecond)
	tr.Complete("refine", "round", start, start.Add(250*time.Microsecond), map[string]any{"cond_bytes": 7})
	var got []chromeEvent
	for _, e := range decodeTrace(t, tr).TraceEvents {
		if e.Ph == "X" {
			got = append(got, e)
		}
	}
	if len(got) != 1 {
		t.Fatalf("complete events = %d, want 1", len(got))
	}
	e := got[0]
	if e.Name != "round" || e.Cat != "refine" || *e.TID != 1 || e.Dur != 250 || *e.TS < 1000 {
		t.Fatalf("event %+v", e)
	}
	if e.Args["cond_bytes"] != float64(7) || e.Args["span_id"] == nil || e.Args["trace_id"] == nil {
		t.Fatalf("args %v", e.Args)
	}
}

// TestNilTracerWritesEmptyTrace: a nil tracer must still produce a
// well-formed (empty) trace file.
func TestNilTracerWritesEmptyTrace(t *testing.T) {
	var tr *Tracer
	ct := decodeTrace(t, tr)
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("nil tracer emitted %d events", len(ct.TraceEvents))
	}
}

// TestTraceWriteFile round-trips through the -tracefile path.
func TestTraceWriteFile(t *testing.T) {
	tr := NewTracer()
	tr.Start("c", "n").End()
	path := t.TempDir() + "/trace.json"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 1 {
		t.Fatalf("events = %d, want 1", len(ct.TraceEvents))
	}
}
