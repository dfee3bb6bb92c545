package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Journal kinds — the event vocabulary the flight recorder captures.
// Kinds are short stable strings so dumps grep cleanly.
const (
	JKindRefine   = "refine-round"    // one abstraction-refinement round
	JKindBreaker  = "breaker"         // fleet backend marked down
	JKindFallback = "remote-fallback" // remote prove fell back to local
	JKindFuzz     = "fuzz-verdict"    // fuzz-oracle verdict
	JKindLoadFail = "load-failure"    // program load rejected / errored
	JKindRPC      = "rpc-error"       // transport-level RPC failure
	JKindPanic    = "panic"           // recovered daemon panic
)

// JournalEntry is one flight-recorder record. Fields are flat scalars —
// no maps, no interfaces — so recording never boxes and the ring never
// retains caller memory beyond the strings themselves.
type JournalEntry struct {
	Seq          uint64 `json:"seq"`
	TimeUnixNano int64  `json:"time_unix_nano"`
	Kind         string `json:"kind"`
	Source       string `json:"source"` // subsystem: loader, fleet, proofd, refiner, fuzzcamp
	Detail       string `json:"detail"` // human-readable specifics
	Value        int64  `json:"value"`  // kind-specific scalar (round, latency µs, ...)
}

// Journal is a fixed-size black-box flight recorder: a ring of the last
// N structured events, cheap enough to leave always-on and dumped when
// something dies (load failure, daemon panic, SIGQUIT). The nil
// *Journal is a valid no-op and records nothing — zero allocations on
// the disabled path, pinned by TestZeroAlloc.
type Journal struct {
	mu      sync.Mutex
	entries []JournalEntry
	head    int    // ring write position once full
	full    bool   // wrapped at least once
	seq     uint64 // total records ever (monotone, survives eviction)
}

// DefaultJournalSize is the ring capacity used by NewJournal.
const DefaultJournalSize = 512

// NewJournal returns a flight recorder retaining the last size events
// (size <= 0 selects DefaultJournalSize). The ring is allocated up
// front so recording never grows memory.
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournalSize
	}
	return &Journal{entries: make([]JournalEntry, size)}
}

// Record appends one event, evicting the oldest when full. Nil-safe.
func (j *Journal) Record(kind, source, detail string, value int64) {
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.seq++
	j.entries[j.head] = JournalEntry{
		Seq: j.seq, TimeUnixNano: now,
		Kind: kind, Source: source, Detail: detail, Value: value,
	}
	j.head++
	if j.head == len(j.entries) {
		j.head = 0
		j.full = true
	}
	j.mu.Unlock()
}

// Recordf is Record with a formatted detail string. It allocates (fmt),
// so hot paths should guard with a nil check first:
//
//	if jr := reg.Journal(); jr != nil { jr.Recordf(...) }
func (j *Journal) Recordf(kind, source string, value int64, format string, args ...any) {
	if j == nil {
		return
	}
	j.Record(kind, source, fmt.Sprintf(format, args...), value)
}

// Len reports how many events are currently retained. Nil-safe.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.full {
		return len(j.entries)
	}
	return j.head
}

// Seq reports how many events were ever recorded (retained + evicted).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Entries copies out the retained events, oldest first. Nil-safe
// (empty).
func (j *Journal) Entries() []JournalEntry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.full {
		return append([]JournalEntry(nil), j.entries[:j.head]...)
	}
	out := make([]JournalEntry, 0, len(j.entries))
	out = append(out, j.entries[j.head:]...)
	out = append(out, j.entries[:j.head]...)
	return out
}

// journalDump is the JSON envelope for dumps and /debug/journal.
type journalDump struct {
	Recorded uint64         `json:"recorded"` // total ever
	Retained int            `json:"retained"`
	Entries  []JournalEntry `json:"entries"`
}

// WriteJSON dumps the journal as a JSON object {recorded, retained,
// entries}. Nil-safe: a nil journal writes an empty dump.
func (j *Journal) WriteJSON(w io.Writer) error {
	d := journalDump{Entries: []JournalEntry{}}
	if j != nil {
		d.Entries = j.Entries()
		d.Recorded = j.Seq()
		d.Retained = len(d.Entries)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Dump writes a human-oriented text rendering (one line per event,
// oldest first) — the format used for crash/SIGQUIT dumps to stderr.
// Nil-safe no-op.
func (j *Journal) Dump(w io.Writer) {
	if j == nil {
		return
	}
	entries := j.Entries()
	fmt.Fprintf(w, "=== flight recorder: %d retained of %d recorded ===\n", len(entries), j.Seq())
	for _, e := range entries {
		t := time.Unix(0, e.TimeUnixNano).UTC().Format("15:04:05.000000")
		fmt.Fprintf(w, "[%6d] %s %-14s %-8s v=%-8d %s\n", e.Seq, t, e.Kind, e.Source, e.Value, e.Detail)
	}
	fmt.Fprintf(w, "=== end flight recorder ===\n")
}
