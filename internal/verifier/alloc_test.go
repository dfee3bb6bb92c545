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

// walkAllocs is the heap allocations and bytes of one Verify of p, with
// its stats. testing.AllocsPerRun counts objects only; bytes come from
// runtime.MemStats.TotalAlloc over the same runs.
func walkAllocs(t *testing.T, p *ebpf.Program) (allocs, bytes float64, st Stats) {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, func() {
		v := New(p, Config{})
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
// arena, and a small fraction of an allocation, and a few bytes, per
// instruction on a forking workload.
func TestWalkAllocsPerInsn(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	short, _, _ := walkAllocs(t, straightLine(64))
	long, _, _ := walkAllocs(t, straightLine(1024))
	// The arena's chunks hold 16, 32, 64, … nodes. The 66-insn program
	// fills the first three; the 1,026-insn one adds chunks of 128, 256,
	// 512 and 1,024 and grows the chunk list once more.
	if extra := long - short; extra > 8 {
		t.Errorf("960 more straight-line instructions cost %v more allocations (%v vs %v), want <= 8",
			extra, long, short)
	}

	// ParallelStress(8, 96, 0) measures 0.030 allocations and 28 bytes
	// per instruction; the bounds leave 50% headroom.
	allocs, bytes, st := walkAllocs(t, corpus.ParallelStress(8, 96, 0))
	if perInsn := allocs / float64(st.InsnProcessed); perInsn > 0.045 {
		t.Errorf("ParallelStress(8, 96, 0): %v allocations over %d instructions = %.3f per instruction, want <= 0.045",
			allocs, st.InsnProcessed, perInsn)
	}
	if perInsn := bytes / float64(st.InsnProcessed); perInsn > 42 {
		t.Errorf("ParallelStress(8, 96, 0): %.0f bytes over %d instructions = %.1f per instruction, want <= 42",
			bytes, st.InsnProcessed, perInsn)
	}
	t.Logf("straight-line 64/1024: %v/%v allocs; ParallelStress(8, 96, 0): %v allocs, %.0f B, %d insns",
		short, long, allocs, bytes, st.InsnProcessed)
}
