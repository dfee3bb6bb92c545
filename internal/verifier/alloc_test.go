package verifier

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
)

// straightLine is a single-path program of n ALU instructions plus the
// r0 set-up and exit.
func straightLine(n int) *ebpf.Program {
	var b strings.Builder
	b.WriteString("r0 = 0\n")
	for range n {
		b.WriteString("r0 += 1\n")
	}
	b.WriteString("exit\n")
	return mapProg(b.String())
}

// walkAllocs is the heap allocations and bytes of one Verify of p under
// cfg, with its stats. testing.AllocsPerRun counts objects only; bytes
// come from runtime.MemStats.TotalAlloc over the same runs.
func walkAllocs(t *testing.T, p *ebpf.Program, cfg Config) (allocs, bytes float64, st Stats) {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		v := New(p, cfg)
		if err := v.Verify(); err != nil {
			t.Fatal(err)
		}
		st = v.Stats()
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), st
}

// TestWalkAllocsPerInsn pins the walk's allocation budget: nothing per
// non-forking instruction beyond the geometric growth of the path-node
// arena, nothing per fork once the undo trail has grown, and a small
// fraction of an allocation, and a few bytes, per instruction on a
// forking workload that records pruning-table entries.
func TestWalkAllocsPerInsn(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	short, _, _ := walkAllocs(t, straightLine(64), Config{})
	long, _, _ := walkAllocs(t, straightLine(1024), Config{})
	// The arena's chunks hold 16, 32, 64, … nodes. The 66-insn program
	// fills the first three; the 1,026-insn one adds chunks of 128, 256,
	// 512 and 1,024 and grows the chunk list once more.
	if extra := long - short; extra > 8 {
		t.Errorf("960 more straight-line instructions cost %v more allocations (%v vs %v), want <= 8",
			extra, long, short)
	}

	// Without pruning the fan-out allocates only its tables: its 192 more
	// forks at depth 8 than at depth 6 reuse the trail, the branch stack
	// and the arena, which grow by at most a chunk or two.
	noPrune := Config{NoPruning: true}
	shallow, _, _ := walkAllocs(t, corpus.ParallelStress(6, 96, 0), noPrune)
	deep, _, _ := walkAllocs(t, corpus.ParallelStress(8, 96, 0), noPrune)
	if extra := deep - shallow; extra > 3 {
		t.Errorf("ParallelStress(8, 96, 0) without pruning costs %v more allocations than depth 6 (%v vs %v), want <= 3",
			extra, deep, shallow)
	}

	// ParallelStress(8, 96, 0) measures 0.0038 allocations and 2.3 bytes
	// per instruction: its 255 recorded states (pinned, so a change to
	// the add rule shows here first) fill 47 snapshots, 208 of them
	// reusing an evicted entry's. The bounds leave 10% headroom.
	allocs, bytes, st := walkAllocs(t, corpus.ParallelStress(8, 96, 0), Config{})
	if st.StatesRecorded != 255 {
		t.Errorf("ParallelStress(8, 96, 0) recorded %d states, want 255", st.StatesRecorded)
	}
	if perInsn := allocs / float64(st.InsnProcessed); perInsn > 0.0042 {
		t.Errorf("ParallelStress(8, 96, 0): %v allocations over %d instructions = %.4f per instruction, want <= 0.0042",
			allocs, st.InsnProcessed, perInsn)
	}
	if perInsn := bytes / float64(st.InsnProcessed); perInsn > 2.6 {
		t.Errorf("ParallelStress(8, 96, 0): %.0f bytes over %d instructions = %.2f per instruction, want <= 2.6",
			bytes, st.InsnProcessed, perInsn)
	}
	t.Logf("straight-line 64/1024: %v/%v allocs; without pruning depth 6/8: %v/%v allocs; "+
		"ParallelStress(8, 96, 0): %v allocs, %.0f B, %d insns",
		short, long, shallow, deep, allocs, bytes, st.InsnProcessed)
}

// TestRecycledSnapshotsOwnTheirStack checks that a snapshot recorded
// into an evicted entry's state shares no Stack backing array with the
// live state or with another entry, on a fan-out whose incomparable
// paths spill to the stack on every rung, so entries are evicted and
// their snapshots reused.
func TestRecycledSnapshotsOwnTheirStack(t *testing.T) {
	var b strings.Builder
	b.WriteString("r6 = *(u32 *)(r1 +0)\n*(u64 *)(r10 -8) = r6\nr0 = 0\n")
	for i := range 8 {
		fmt.Fprintf(&b, "r2 = r6\nr2 >>= %d\nr2 &= 1\nif r2 == 0 goto +1\nr0 += 1\nr0 <<= 1\n*(u64 *)(r10 -16) = r0\n", i)
	}
	b.WriteString("exit\n")
	v := New(mapProg(b.String()), Config{})
	if err := v.Verify(); err != nil {
		t.Fatal(err)
	}
	owner := map[*StackSlot]string{unsafe.SliceData(v.st.Stack[:cap(v.st.Stack)]): "the live state"}
	live := 0
	for pc, entries := range v.explored {
		for i, e := range entries {
			live++
			if cap(e.st.Stack) == 0 {
				t.Fatalf("pc %d entry %d recorded no stack", pc, i)
			}
			p, name := unsafe.SliceData(e.st.Stack[:cap(e.st.Stack)]), fmt.Sprintf("pc %d entry %d", pc, i)
			if other, ok := owner[p]; ok {
				t.Fatalf("%s shares its Stack backing array with %s", name, other)
			}
			owner[p] = name
		}
	}
	// Every snapshot is live or free; recording more states than that
	// reused evicted ones.
	if st := v.Stats(); st.StatesRecorded <= live+len(v.free) {
		t.Fatalf("%d states recorded into %d live and %d free snapshots: none was recycled",
			st.StatesRecorded, live, len(v.free))
	}
}

// TestExploredListsStayBounded runs a counting loop, whose every arrival
// at the loop head holds a new constant and is never pruned, to the
// default instruction limit. Its entries are evicted as fast as they are
// recorded, so the loop head's list, which every arrival scans, and the
// snapshots behind it stay within maxExploredPerInsn however many states
// the loop records.
func TestExploredListsStayBounded(t *testing.T) {
	v := New(mapProg("r0 = 0\nr1 = 0\nr1 += 1\nif r1 != 0 goto -2\nexit\n"), Config{})
	if err := v.Verify(); err == nil {
		t.Fatal("the counting loop was accepted")
	}
	st := v.Stats()
	if st.InsnProcessed != DefaultInsnLimit || st.StatesRecorded < 100_000 {
		t.Fatalf("%d insns and %d states recorded, want the %d-insn limit and >= 100,000 states",
			st.InsnProcessed, st.StatesRecorded, DefaultInsnLimit)
	}
	snapshots := len(v.free)
	for pc, entries := range v.explored {
		if len(entries) > maxExploredPerInsn {
			t.Errorf("pc %d holds %d entries after %d records, want <= %d",
				pc, len(entries), st.StatesRecorded, maxExploredPerInsn)
		}
		snapshots += len(entries)
	}
	if snapshots > maxExploredPerInsn+1 {
		t.Errorf("%d records allocated %d snapshots, want <= %d", st.StatesRecorded, snapshots, maxExploredPerInsn+1)
	}
}
