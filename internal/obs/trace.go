package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"time"
)

// TraceContext identifies a position in a distributed trace: the
// 128-bit trace ID names one end-to-end story (a load, a bench run), and
// Span is the 64-bit ID of the span that is the parent of whatever the
// receiver records. It is the unit that crosses process boundaries —
// proofrpc frames carry exactly this struct, so a daemon can nest its
// cache-tier spans under the client RPC span that asked for them. The
// zero value means "no trace": senders omit it from the wire and
// receivers record unparented spans.
type TraceContext struct {
	TraceHi, TraceLo uint64
	Span             uint64
}

// Valid reports whether the context names a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceHi != 0 || tc.TraceLo != 0 }

// TraceIDString renders the 128-bit trace ID as 32 hex digits.
func (tc TraceContext) TraceIDString() string {
	return fmt.Sprintf("%016x%016x", tc.TraceHi, tc.TraceLo)
}

// spanIDString renders a span ID as 16 hex digits ("" for no span).
func spanIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// ctxKey keys the TraceContext stored in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying tc, so layers that only
// see a context.Context (the loader's RemoteProver interface) can still
// parent their spans correctly across the call.
func ContextWithSpan(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// SpanFromContext extracts the TraceContext placed by ContextWithSpan
// (zero value when absent).
func SpanFromContext(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(ctxKey{}).(TraceContext)
	return tc
}

// TraceEvent is one Chrome trace-event (the JSON array format consumed
// by Perfetto and chrome://tracing). Complete events (ph "X") carry a
// duration; metadata events (ph "M") do not. It is exported because a traced proofrpc reply carries the
// daemon's events back to the caller (ExportedTrace).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceSink collects events from every derived Tracer handle. Span and
// trace identity live here so all handles agree: traceHi/traceLo name
// the trace and spanSeq hands out sink-unique span IDs on top of a
// random base (so two processes minting spans for one trace do not
// collide).
type traceSink struct {
	mu     sync.Mutex
	start  time.Time
	events []TraceEvent
	named  map[[2]int64]bool // (pid,tid) pairs already carrying name metadata

	traceHi, traceLo uint64
	spanBase         uint64
	spanSeq          uint64
}

// Tracer records spans and events keyed by a (pid, tid) pair — in this
// repository pid identifies the program under load and tid the thread
// role (user/loader side vs kernel/verifier side). Handles derived with
// WithProcess/WithThread share one event sink, so a single trace file
// covers a whole parallel evaluation. Every tracer carries a random
// 128-bit trace ID, every span a 64-bit span ID, and spans record their
// parent — the identity that lets a remote daemon's spans stitch under
// the client RPC span that caused them. The nil Tracer is a valid
// no-op: every method returns immediately and Start hands out an inert
// Span.
type Tracer struct {
	sink *traceSink
	pid  int64
	tid  int64

	// parent is the span ID new spans nest under (0 = root).
	parent uint64
	// remoteHi/remoteLo, when set, override the sink's trace ID: the
	// handle records spans that belong to a caller's trace (WithParent
	// on the serving side of an RPC).
	remoteHi, remoteLo uint64
}

// NewTracer returns a tracer writing to a fresh sink (pid 0, tid 0)
// under a fresh random trace ID.
func NewTracer() *Tracer {
	return &Tracer{sink: &traceSink{
		start:    time.Now(),
		named:    map[[2]int64]bool{},
		traceHi:  rand.Uint64(),
		traceLo:  rand.Uint64(),
		spanBase: rand.Uint64() &^ 0xffffffff, // low 32 bits left for the sequence
	}}
}

// WithProcess derives a handle whose events carry the given pid,
// labelling it in the trace viewer. Nil-safe.
func (t *Tracer) WithProcess(pid int, name string) *Tracer {
	if t == nil {
		return nil
	}
	nt := *t
	nt.pid = int64(pid)
	if name != "" {
		nt.meta("process_name", name, true)
	}
	return &nt
}

// WithThread derives a handle whose events carry the given tid,
// labelling it in the trace viewer. Nil-safe.
func (t *Tracer) WithThread(tid int, name string) *Tracer {
	if t == nil {
		return nil
	}
	nt := *t
	nt.tid = int64(tid)
	if name != "" {
		nt.meta("thread_name", name, false)
	}
	return &nt
}

// WithParent derives a handle whose spans nest under tc — the serving
// side of a traced RPC: the daemon records its cache-tier spans under
// the caller's trace ID with the caller's RPC span as parent, so the
// caller's merged trace file shows one unbroken tree. An invalid tc
// returns the handle unchanged. Nil-safe.
func (t *Tracer) WithParent(tc TraceContext) *Tracer {
	if t == nil || !tc.Valid() {
		return t
	}
	nt := *t
	nt.parent = tc.Span
	nt.remoteHi, nt.remoteLo = tc.TraceHi, tc.TraceLo
	return &nt
}

// traceIDs returns the trace ID this handle records under.
func (t *Tracer) traceIDs() (hi, lo uint64) {
	if t.remoteHi != 0 || t.remoteLo != 0 {
		return t.remoteHi, t.remoteLo
	}
	return t.sink.traceHi, t.sink.traceLo
}

// nextSpanID mints a sink-unique span ID.
func (t *Tracer) nextSpanID() uint64 {
	s := t.sink
	s.mu.Lock()
	s.spanSeq++
	id := s.spanBase + s.spanSeq
	s.mu.Unlock()
	return id
}

// meta emits a process_name/thread_name metadata event once per
// (pid,tid) key.
func (t *Tracer) meta(kind, name string, process bool) {
	s := t.sink
	key := [2]int64{t.pid, t.tid}
	if process {
		key[1] = -1 // process names key on pid alone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := [2]int64{key[0], key[1]}
	if s.named[mk] {
		return
	}
	s.named[mk] = true
	s.events = append(s.events, TraceEvent{
		Name: kind, Ph: "M", PID: t.pid, TID: t.tid,
		Args: map[string]any{"name": name},
	})
}

// Span is an open interval on the trace timeline. The zero Span (from a
// nil Tracer) is inert: End and EndArgs are no-ops.
type Span struct {
	t      *Tracer
	name   string
	cat    string
	begin  time.Time
	args   map[string]any
	id     uint64
	parent uint64
	// trace identity captured at Start (the handle's remote override or
	// the sink's own ID).
	hi, lo uint64
}

// Context returns the span's position in the trace, ready to cross a
// process boundary (the child records under this as parent). The zero
// Span returns the zero TraceContext.
func (s Span) Context() TraceContext {
	if s.t == nil {
		return TraceContext{}
	}
	return TraceContext{TraceHi: s.hi, TraceLo: s.lo, Span: s.id}
}

// Start opens a span. Close it with End (or EndArgs to attach data).
func (t *Tracer) Start(cat, name string) Span {
	return t.StartArgs(cat, name, nil)
}

// StartArgs opens a span with arguments attached up front.
func (t *Tracer) StartArgs(cat, name string, args map[string]any) Span {
	if t == nil {
		return Span{}
	}
	hi, lo := t.traceIDs()
	return Span{
		t: t, name: name, cat: cat, begin: time.Now(), args: args,
		id: t.nextSpanID(), parent: t.parent, hi: hi, lo: lo,
	}
}

// StartUnder opens a span as an explicit child of parent (same trace ID
// and parent span), regardless of the handle's own parent — the client
// side of a traced RPC call chain, where the parent span context
// arrives via ContextWithSpan rather than handle derivation.
func (t *Tracer) StartUnder(parent TraceContext, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	sp := t.StartArgs(cat, name, nil)
	if parent.Valid() {
		sp.hi, sp.lo = parent.TraceHi, parent.TraceLo
		sp.parent = parent.Span
	}
	return sp
}

// End closes the span and records it.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs closes the span, merging extra arguments into any set at
// Start. The span's trace/span/parent identity is folded into args so
// trace files are self-describing and stitchable with jq alone.
func (s Span) EndArgs(extra map[string]any) { s.endAt(time.Now(), extra) }

// Complete records a finished span that ran from start to end, for a
// caller that timed the work itself and reports it afterwards.
func (t *Tracer) Complete(cat, name string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	sp := t.StartArgs(cat, name, args)
	sp.begin = start
	sp.endAt(end, nil)
}

func (s Span) endAt(end time.Time, extra map[string]any) {
	if s.t == nil {
		return
	}
	args := s.args
	if args == nil {
		args = make(map[string]any, len(extra)+3)
	}
	for k, v := range extra {
		args[k] = v
	}
	if s.hi != 0 || s.lo != 0 {
		args["trace_id"] = TraceContext{TraceHi: s.hi, TraceLo: s.lo}.TraceIDString()
		args["span_id"] = spanIDString(s.id)
		if s.parent != 0 {
			args["parent_span_id"] = spanIDString(s.parent)
		}
	}
	sink := s.t.sink
	sink.mu.Lock()
	sink.events = append(sink.events, TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS:  float64(s.begin.Sub(sink.start).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(s.begin).Nanoseconds()) / 1e3,
		PID: s.t.pid, TID: s.t.tid, Args: args,
	})
	sink.mu.Unlock()
}

// Len reports how many events the sink holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.sink.mu.Lock()
	defer t.sink.mu.Unlock()
	return len(t.sink.events)
}

// ---- spans across the wire ----

// ExportedTrace is the wire form of one side's spans: events plus the
// exporting sink's epoch, so the importer can place them on its own
// timeline. A traced proofrpc reply carries it as JSON.
type ExportedTrace struct {
	// StartUnixNano is the exporting sink's epoch: event TS values are
	// microseconds since this instant, on the exporter's clock.
	StartUnixNano int64        `json:"start_unix_nano"`
	Events        []TraceEvent `json:"events"`
}

// Export copies out every event the tracer's sink holds: a daemon
// records each traced request in a tracer of its own and exports it
// whole into the reply. Nil-safe: a nil tracer exports an empty trace.
func (t *Tracer) Export() ExportedTrace {
	ex := ExportedTrace{Events: []TraceEvent{}}
	if t == nil {
		return ex
	}
	t.sink.mu.Lock()
	defer t.sink.mu.Unlock()
	ex.StartUnixNano = t.sink.start.UnixNano()
	ex.Events = append(ex.Events, t.sink.events...)
	return ex
}

// Join records an export from the same host into t's sink under t's
// pid, with no clock offset: the daemon's -tracefile keeps a copy of
// every traced request it answered. Nil-safe no-op.
func (t *Tracer) Join(ex ExportedTrace) {
	if t != nil {
		t.Merge(ex, t.pid, "", 0)
	}
}

// Merge imports another process's exported events into this tracer's
// sink, labelling them with the given pid/name (so the remote side
// appears as its own process track in the viewer) and correcting
// timestamps by clockOffset, the remoteClock−localClock difference
// (prooffleet estimates it from the round trip that carried the
// events). Nil-safe no-op.
func (t *Tracer) Merge(ex ExportedTrace, pid int64, name string, clockOffset time.Duration) {
	if t == nil || len(ex.Events) == 0 {
		return
	}
	s := t.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	// remote absolute ns = ex.StartUnixNano + ts·1000; local absolute =
	// remote − offset; local relative µs = (local abs − sink epoch)/1000.
	shiftNS := float64(ex.StartUnixNano - clockOffset.Nanoseconds() - s.start.UnixNano())
	mk := [2]int64{pid, -1}
	if name != "" && !s.named[mk] {
		s.named[mk] = true
		s.events = append(s.events, TraceEvent{Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": name}})
	}
	for _, e := range ex.Events {
		e.PID = pid
		e.TS += shiftNS / 1e3
		s.events = append(s.events, e)
	}
}

// traceFile is the Chrome trace-event JSON object format.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON emits the collected events as Chrome trace-event JSON
// (object format, loadable in Perfetto / chrome://tracing). Nil-safe:
// a nil tracer writes an empty trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	tf := traceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.sink.mu.Lock()
		tf.TraceEvents = append(tf.TraceEvents, t.sink.events...)
		t.sink.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
