package verifier

import (
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

// walkAllocs is the heap allocations of one Verify of p, with its stats.
func walkAllocs(t *testing.T, p *ebpf.Program) (float64, Stats) {
	t.Helper()
	var st Stats
	n := testing.AllocsPerRun(5, func() {
		v := New(p, Config{})
		if err := v.Verify(); err != nil {
			t.Fatal(err)
		}
		st = v.Stats()
	})
	return n, st
}

// TestWalkAllocsPerInsn pins the walk's allocation budget: nothing per
// non-forking instruction beyond the geometric growth of the walk's
// path-node slab, and a small fraction of an allocation per instruction
// on a forking workload.
func TestWalkAllocsPerInsn(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	short, _ := walkAllocs(t, straightLine(64))
	long, _ := walkAllocs(t, straightLine(1024))
	// 64 nodes fill chunks of 8+16+32+64; 1,024 add 128 and four of 256.
	if extra := long - short; extra > 8 {
		t.Errorf("960 more straight-line instructions cost %v more allocations (%v vs %v), want <= 8",
			extra, long, short)
	}

	allocs, st := walkAllocs(t, corpus.ParallelStress(8, 96, 0))
	if perInsn := allocs / float64(st.InsnProcessed); perInsn > 0.15 {
		t.Errorf("ParallelStress(8, 96, 0): %v allocations over %d instructions = %.3f per instruction, want <= 0.15",
			allocs, st.InsnProcessed, perInsn)
	}
	t.Logf("straight-line 64/1024: %v/%v allocs; ParallelStress(8, 96, 0): %v allocs, %d insns",
		short, long, allocs, st.InsnProcessed)
}
