package verifier_test

import (
	"runtime"
	"strings"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// prefixedRefineProg runs n unrelated straight-line instructions, then a
// map lookup followed by 16 Figure 2 accesses that each need a
// refinement. The prefix sits before the lookup, so no refinement's
// track reaches back into it.
func prefixedRefineProg(n int) *ebpf.Program {
	var b strings.Builder
	b.WriteString("r7 = 0\n")
	for range n {
		b.WriteString("r7 += 1\n")
	}
	b.WriteString(`
	r1 = map[0]
	r2 = r10
	r2 += -4
	*(u32 *)(r10 -4) = 0
	call 1
	if r0 == 0 goto miss
	r6 = r0
`)
	for range 16 {
		b.WriteString(`
	r1 = r6
	r2 = *(u64 *)(r1 +0)
	r2 &= 0xf
	r1 += r2
	r3 = 0xf
	r3 -= r2
	r1 += r3
	r0 = *(u8 *)(r1 +0)
`)
	}
	b.WriteString(`
	exit
miss:
	r0 = 0
	exit
`)
	return &ebpf.Program{
		Name:  "prefixed-refine",
		Type:  ebpf.ProgTracepoint,
		Insns: ebpf.MustAssemble(b.String()),
		Maps:  []*ebpf.MapSpec{{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}},
	}
}

// loadBytes is the fewest heap bytes one BCF load of p allocated over a
// few runs, with every proof served from the warm cache.
func loadBytes(t *testing.T, p *ebpf.Program, cache *loader.ProofCache) uint64 {
	t.Helper()
	best := uint64(0)
	for i := range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := loader.Load(p, loader.Options{EnableBCF: true, ProofCache: cache})
		runtime.ReadMemStats(&m1)
		if !res.Accepted {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
		if res.RefineStats.Granted != 16 || res.CacheHits != 16 {
			t.Fatalf("%d refinements granted, %d proofs from the cache, want 16 and 16",
				res.RefineStats.Granted, res.CacheHits)
		}
		if b := m1.TotalAlloc - m0.TotalAlloc; i == 0 || b < best {
			best = b
		}
	}
	return best
}

// TestRefineBytesIndependentOfPathLength pins that a refinement reads
// the path only as far back as its track reaches: lengthening an
// unrelated prefix grows a load by the walk's own per-instruction cost,
// not by a copy of the path per refinement. Bytes, not allocation
// counts: a path copy is one object however long the path.
func TestRefineBytesIndependentOfPathLength(t *testing.T) {
	if verifier.RaceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	short, long := prefixedRefineProg(64), prefixedRefineProg(1024)
	cache := loader.NewProofCache()
	for _, p := range []*ebpf.Program{short, long} {
		if res := loader.Load(p, loader.Options{EnableBCF: true, ProofCache: cache}); !res.Accepted {
			t.Fatalf("%s: %v", p.Name, res.Err)
		}
	}
	bs, bl := loadBytes(t, short, cache), loadBytes(t, long, cache)
	slope := (float64(bl) - float64(bs)) / 960
	if slope > 128 {
		t.Errorf("960 more prefix instructions cost %.0f more bytes per instruction (%d vs %d B per load), want <= 128",
			slope, bl, bs)
	}
	t.Logf("64/1024-insn prefix: %d/%d B per load, %.0f B per prefix instruction", bs, bl, slope)
}
