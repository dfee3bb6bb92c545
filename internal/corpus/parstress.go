package corpus

import (
	"fmt"
	"strings"

	"bcf/internal/ebpf"
)

// ParallelStress builds the worst case for verifier path exploration: a
// ladder of depth independent forks on distinct bits of an unknown
// context word. Each taken rung adds a constant before every rung
// doubles r0, so the accumulator of a path encodes its branch choices
// exactly (bit i of r0 set iff rung i was taken). Every pair of paths
// therefore carries mutually incomparable constants and state pruning
// never fires: the verifier must walk all 2^depth paths, which is what
// BenchmarkVerifierStress and the path-explosion benchmark want.
//
// tail appends that many straight-line ALU instructions per path so each
// walk does nontrivial work after its last fork.
//
// faults plants an out-of-bounds stack read on the given number of
// single-rung paths (the path that took only rung f and no other),
// giving the program deterministic failing paths at distinct
// instructions — the fixture for error-identity determinism tests.
// faults must not exceed depth; with faults == 0 the program is safe.
func ParallelStress(depth, tail, faults int) *ebpf.Program {
	if depth < 1 || depth > 30 {
		panic("ParallelStress: depth out of range")
	}
	if faults < 0 || faults > depth {
		panic("ParallelStress: faults out of range")
	}
	var b strings.Builder
	b.WriteString("r6 = *(u32 *)(r1 +0)\n")
	b.WriteString("r0 = 0\n")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "r2 = r6\n")
		fmt.Fprintf(&b, "r2 >>= %d\n", i)
		fmt.Fprintf(&b, "r2 &= 1\n")
		fmt.Fprintf(&b, "if r2 == 0 goto skip%d\n", i)
		fmt.Fprintf(&b, "r0 += 1\n")
		fmt.Fprintf(&b, "skip%d:\n", i)
		fmt.Fprintf(&b, "r0 <<= 1\n")
	}
	// The only-rung-f path ends with r0 == 1 << (depth - f); r0 is a
	// per-path constant, so these comparisons resolve statically and add
	// no forks.
	for f := 0; f < faults; f++ {
		fmt.Fprintf(&b, "if r0 == %d goto bad%d\n", 1<<(depth-f), f)
	}
	b.WriteString("r3 = r0\n")
	for t := 0; t < tail; t++ {
		if t%2 == 0 {
			fmt.Fprintf(&b, "r3 += %d\n", t+1)
		} else {
			b.WriteString("r3 &= 65535\n")
		}
	}
	b.WriteString("exit\n")
	for f := 0; f < faults; f++ {
		// Distinct offsets below the stack floor: distinct messages and
		// instruction indexes per fault.
		fmt.Fprintf(&b, "bad%d:\n", f)
		fmt.Fprintf(&b, "r9 = *(u64 *)(r10 -%d)\n", 520+8*f)
		b.WriteString("exit\n")
	}
	return &ebpf.Program{
		Name:  fmt.Sprintf("parstress_d%d_t%d_f%d", depth, tail, faults),
		Type:  ebpf.ProgTracepoint,
		Insns: ebpf.MustAssemble(b.String()),
	}
}
