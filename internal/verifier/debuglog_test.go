package verifier_test

import (
	"fmt"
	"slices"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// grantRefiner trusts every request and grants exactly the wanted range,
// anchoring the track at the failing instruction.
type grantRefiner struct{}

func (grantRefiner) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	return &verifier.RefineResult{Lo: req.WantLo, Hi: req.WantHi, Anchor: 1}, nil
}

// TestDebugLogGolden pins the debug log (loader.DebugLog, the observer
// that renders walk events) byte for byte on small programs whose walks
// between them report every kind of event: instructions, forks, prunes,
// exits, invariant widening, and granted, failed and infeasible-path
// refinements. The log must be observation only: without it the verdict
// and Stats are identical.
func TestDebugLogGolden(t *testing.T) {
	cases := []struct {
		name  string
		prog  *ebpf.Program
		cfg   func() verifier.Config // fresh per run: refiners keep state
		err   string
		stats verifier.Stats
		log   []string
	}{
		{
			name: "fork-prune-exit",
			prog: verifier.MapProg(`
				r2 = *(u32 *)(r1 +0)
				*(u64 *)(r10 -8) = r2
				r3 = 0
				r0 = 0
				if r2 > 10 goto +2
				r2 = 0
				goto +1
				r2 = 0
				exit
			`),
			cfg:   func() verifier.Config { return verifier.Config{} },
			stats: verifier.Stats{InsnProcessed: 10, PathsExplored: 2, StatesPruned: 1, PeakStackDepth: 1, StatesRecorded: 1},
			log: []string{
				"0: r2 = *(u32 *)(r1 +0)",
				"1: *(u64 *)(r10 -8) = r2",
				"2: r3 = 0",
				"3: r0 = 0",
				"4: if r2 > 10 goto +2",
				"5: r2 = 0",
				"6: goto +1",
				"8: exit",
				"8: exit, path ok",
				"7: r2 = 0",
				"8: pruned",
			},
		},
		{
			name: "loop-invariant",
			prog: verifier.MapProg(verifier.LoopProgSrc),
			cfg: func() verifier.Config {
				return verifier.Config{InsnLimit: 2000, LoopInvariants: []verifier.LoopInvariant{
					{Insn: 2, Regs: []verifier.RegRange{{Reg: ebpf.R6, UMin: 0, UMax: ^uint64(0)}}},
				}}
			},
			stats: verifier.Stats{InsnProcessed: 8, PathsExplored: 2, StatesPruned: 1, PeakStackDepth: 1, StatesRecorded: 1},
			log: []string{
				"0: r7 = r1",
				"1: r6 = 0",
				"2: widened R6 to declared fixpoint [0,18446744073709551615]",
				"2: r6 += 1",
				"3: r2 = *(u32 *)(r7 +0)",
				"4: if r2 != 0 goto -3",
				"5: r0 = 0",
				"6: exit",
				"6: exit, path ok",
				"2: widened R6 to declared fixpoint [0,18446744073709551615]",
				"2: pruned",
			},
		},
		{
			name: "refine-granted",
			prog: verifier.MapProg(verifier.LookupPrologue+`
				r6 = r0
				r8 = *(u32 *)(r6 +0)
				r8 &= 31
				r1 = r6
				r1 += r8
				r0 = *(u32 *)(r1 +0)
			`+verifier.LookupEpilogue, verifier.TestMap16),
			cfg:   func() verifier.Config { return verifier.Config{Refiner: grantRefiner{}} },
			stats: verifier.Stats{InsnProcessed: 16, PathsExplored: 2, PeakStackDepth: 1, Refinements: 1, RefineAttempts: 1, StatesRecorded: 1},
			log: []string{
				"0: r1 = map[0]",
				"2: r2 = r10",
				"3: r2 += -4",
				"4: *(u32 *)(r10 -4) = 0",
				"5: call 1",
				"6: if r0 == 0 goto +6",
				"7: r6 = r0",
				"8: r8 = *(u32 *)(r6 +0)",
				"9: r8 &= 31",
				"10: r1 = r6",
				"11: r1 += r8",
				"12: r0 = *(u32 *)(r1 +0)",
				"12: refined R1 to [0, 12]",
				"13: r0 = 0",
				"14: exit",
				"14: exit, path ok",
				"13: r0 = 0",
				"14: exit",
				"14: exit, path ok",
			},
		},
		{
			name: "refine-infeasible-then-failed",
			prog: verifier.RefinePruneProg(),
			cfg: func() verifier.Config {
				return verifier.Config{Refiner: verifier.NewAnchorRefiner()}
			},
			err:   "insn 23: invalid access to map value, value_size=16 off=16 size=4 (R1 max offset 16): no more proofs",
			stats: verifier.Stats{InsnProcessed: 28, PathsExplored: 2, PeakStackDepth: 2, Refinements: 1, RefineAttempts: 2, StatesRecorded: 2},
			log: []string{
				"0: r1 = map[0]",
				"2: r2 = r10",
				"3: r2 += -4",
				"4: *(u32 *)(r10 -4) = 0",
				"5: call 1",
				"6: if r0 == 0 goto +17",
				"7: r6 = r0",
				"8: call 7",
				"9: r8 = r0",
				"10: r9 = 0",
				"11: if r9 != 0 goto +0",
				"12: r7 = 0",
				"13: r7 += 1",
				"14: r7 += 1",
				"15: r7 += 1",
				"16: if r8 & -6 goto +0",
				"17: r0 = 0",
				"18: r8 &= 0",
				"19: if r8 <= 45 goto +1",
				"21: r1 = r6",
				"22: r1 += r8",
				"23: r0 = *(u32 *)(r1 +16)",
				"23: path proven infeasible, pruned",
				"17: r0 = 0",
				"18: r8 &= 0",
				"19: if r8 <= 45 goto +1",
				"21: r1 = r6",
				"22: r1 += r8",
				"23: r0 = *(u32 *)(r1 +16)",
				"23: refinement failed: no more proofs",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, debug := range []bool{true, false} {
				cfg := c.cfg()
				log := &loader.DebugLog{}
				if debug {
					cfg.Observer = log
				}
				v := verifier.New(c.prog, cfg)
				err := v.Verify()
				if got := fmt.Sprint(err); (err == nil) != (c.err == "") || (err != nil && got != c.err) {
					t.Errorf("debug=%v: verdict %v, want %q", debug, err, c.err)
				}
				if st := v.Stats(); st != c.stats {
					t.Errorf("debug=%v: stats %+v, want %+v", debug, st, c.stats)
				}
				if debug && !slices.Equal(log.Lines, c.log) {
					t.Errorf("log\n%q\nwant\n%q", log.Lines, c.log)
				}
			}
		})
	}
}
