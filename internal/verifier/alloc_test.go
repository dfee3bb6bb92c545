package verifier

import (
	"runtime"
	"strings"
	"testing"

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

	// ParallelStress(8, 96, 0) measures 0.020 allocations and 18.5 bytes
	// per instruction, nearly all of them pruning-table entries; the
	// bounds leave 50% headroom.
	allocs, bytes, st := walkAllocs(t, corpus.ParallelStress(8, 96, 0), Config{})
	if perInsn := allocs / float64(st.InsnProcessed); perInsn > 0.030 {
		t.Errorf("ParallelStress(8, 96, 0): %v allocations over %d instructions = %.3f per instruction, want <= 0.030",
			allocs, st.InsnProcessed, perInsn)
	}
	if perInsn := bytes / float64(st.InsnProcessed); perInsn > 28 {
		t.Errorf("ParallelStress(8, 96, 0): %.0f bytes over %d instructions = %.1f per instruction, want <= 28",
			bytes, st.InsnProcessed, perInsn)
	}
	t.Logf("straight-line 64/1024: %v/%v allocs; without pruning depth 6/8: %v/%v allocs; "+
		"ParallelStress(8, 96, 0): %v allocs, %.0f B, %d insns",
		short, long, shallow, deep, allocs, bytes, st.InsnProcessed)
}
