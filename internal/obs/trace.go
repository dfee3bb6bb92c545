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
// 128-bit trace ID names one end-to-end story (a load, a bench run),
// Span is the 64-bit ID of the span that is the parent of whatever the
// receiver records, and Flags carries propagation options. It is the
// unit that crosses process boundaries — proofrpc frames carry exactly
// this struct, so a daemon can nest its cache-tier spans under the
// client RPC span that asked for them. The zero value means "no trace":
// senders omit it from the wire and receivers record unparented spans.
type TraceContext struct {
	TraceHi, TraceLo uint64
	Span             uint64
	Flags            uint32
}

// Trace-context flags.
const (
	// FlagShipSpans asks the server to retain spans recorded under this
	// trace ID for a later TSpans fetch (the ship-spans-back mode that
	// stitches one Perfetto file from both sides of the wire).
	FlagShipSpans uint32 = 1 << 0
)

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
// duration; instant events (ph "i") and metadata events (ph "M") do
// not. It is exported because the ship-spans-back path serializes
// events across the proofrpc boundary (ExportedTrace).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
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

	// cap, when positive, bounds retained events as a ring: the oldest
	// event is dropped for each new one beyond the cap. head is the ring
	// read position; dropped counts evictions.
	cap     int
	head    int
	dropped int64
}

// add appends one event under the ring policy.
func (s *traceSink) add(e TraceEvent) {
	if s.cap > 0 && len(s.events) == s.cap {
		s.events[s.head] = e
		s.head = (s.head + 1) % s.cap
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// ordered returns the retained events oldest-first (copy).
func (s *traceSink) ordered() []TraceEvent {
	out := make([]TraceEvent, 0, len(s.events))
	out = append(out, s.events[s.head:]...)
	out = append(out, s.events[:s.head]...)
	return out
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
func NewTracer() *Tracer { return NewTracerCap(0) }

// NewTracerCap returns a tracer whose sink retains at most cap events,
// evicting oldest-first (0 = unbounded). Long-running daemons use a cap
// so the ship-spans-back buffer cannot grow without bound.
func NewTracerCap(cap int) *Tracer {
	return &Tracer{sink: &traceSink{
		start:    time.Now(),
		named:    map[[2]int64]bool{},
		traceHi:  rand.Uint64(),
		traceLo:  rand.Uint64(),
		spanBase: rand.Uint64() &^ 0xffffffff, // low 32 bits left for the sequence
		cap:      cap,
	}}
}

// TraceID returns the tracer's 128-bit trace ID. Nil-safe (0, 0).
func (t *Tracer) TraceID() (hi, lo uint64) {
	if t == nil {
		return 0, 0
	}
	return t.sink.traceHi, t.sink.traceLo
}

// Dropped reports how many events the ring cap evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.sink.mu.Lock()
	defer t.sink.mu.Unlock()
	return t.sink.dropped
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
// the caller's trace ID with the caller's RPC span as parent, so a
// merged trace file shows one unbroken tree. An invalid tc returns the
// handle unchanged. Nil-safe.
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
	s.add(TraceEvent{
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
	sink.add(TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS:  float64(s.begin.Sub(sink.start).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(s.begin).Nanoseconds()) / 1e3,
		PID: s.t.pid, TID: s.t.tid, Args: args,
	})
	sink.mu.Unlock()
}

// Instant records a zero-duration event (thread scope). When the handle
// has a parent span, the event carries the trace identity so it lands
// inside the right story.
func (t *Tracer) Instant(cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	if t.parent != 0 {
		hi, lo := t.traceIDs()
		if args == nil {
			args = make(map[string]any, 2)
		}
		args["trace_id"] = TraceContext{TraceHi: hi, TraceLo: lo}.TraceIDString()
		args["parent_span_id"] = spanIDString(t.parent)
	}
	sink := t.sink
	sink.mu.Lock()
	sink.add(TraceEvent{
		Name: name, Cat: cat, Ph: "i", S: "t",
		TS:  float64(time.Since(sink.start).Nanoseconds()) / 1e3,
		PID: t.pid, TID: t.tid, Args: args,
	})
	sink.mu.Unlock()
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.sink.mu.Lock()
	defer t.sink.mu.Unlock()
	return len(t.sink.events)
}

// ---- ship-spans-back ----

// ExportedTrace is the wire form of one side's spans for a trace:
// events plus the exporting sink's epoch, so the importer can place
// them on its own timeline (after estimating the clock offset from an
// RTT probe). It travels as JSON inside a TSpansOK frame.
type ExportedTrace struct {
	// StartUnixNano is the exporting sink's epoch: event TS values are
	// microseconds since this instant, on the exporter's clock.
	StartUnixNano int64        `json:"start_unix_nano"`
	Events        []TraceEvent `json:"events"`
}

// Export copies out every event recorded under the given trace ID
// (spans a remote caller asked to ship back). Nil-safe: a nil tracer
// exports an empty trace.
func (t *Tracer) Export(hi, lo uint64) ExportedTrace {
	ex := ExportedTrace{Events: []TraceEvent{}}
	if t == nil {
		return ex
	}
	want := TraceContext{TraceHi: hi, TraceLo: lo}.TraceIDString()
	t.sink.mu.Lock()
	defer t.sink.mu.Unlock()
	ex.StartUnixNano = t.sink.start.UnixNano()
	for _, e := range t.sink.ordered() {
		if id, ok := e.Args["trace_id"].(string); ok && id == want {
			ex.Events = append(ex.Events, e)
		}
	}
	return ex
}

// Merge imports another process's exported events into this tracer's
// sink, labelling them with the given pid/name (so the remote side
// appears as its own process track in the viewer) and correcting
// timestamps by clockOffset — the estimated remoteClock−localClock
// difference, typically from an RTT-halved ping probe. Nil-safe no-op.
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
		s.add(TraceEvent{Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": name}})
	}
	for _, e := range ex.Events {
		e.PID = pid
		e.TS += shiftNS / 1e3
		s.add(e)
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
		tf.TraceEvents = t.sink.ordered()
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
