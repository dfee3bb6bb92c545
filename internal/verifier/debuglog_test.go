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
				r0 = 0
				if r2 > 10 goto +2
				r2 = 0
				goto +1
				r2 = 0
				exit
			`),
			cfg:   func() verifier.Config { return verifier.Config{} },
			stats: verifier.Stats{InsnProcessed: 9, PathsExplored: 2, StatesPruned: 1, PeakStackDepth: 1},
			log: []string{
				"0: r2 = *(u32 *)(r1 +0)",
				"1: *(u64 *)(r10 -8) = r2",
				"2: r0 = 0",
				"3: if r2 > 10 goto +2",
				"4: r2 = 0",
				"5: goto +1",
				"7: exit",
				"7: exit, path ok",
				"6: r2 = 0",
				"7: pruned",
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
			stats: verifier.Stats{InsnProcessed: 8, PathsExplored: 2, StatesPruned: 1, PeakStackDepth: 1},
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
			stats: verifier.Stats{InsnProcessed: 16, PathsExplored: 2, PeakStackDepth: 1, Refinements: 1, RefineAttempts: 1},
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
			err:   "insn 17: invalid access to map value, value_size=16 off=16 size=4 (R1 max offset 16): no more proofs",
			stats: verifier.Stats{InsnProcessed: 22, PathsExplored: 2, PeakStackDepth: 2, Refinements: 1, RefineAttempts: 2},
			log: []string{
				"0: r1 = map[0]",
				"2: r2 = r10",
				"3: r2 += -4",
				"4: *(u32 *)(r10 -4) = 0",
				"5: call 1",
				"6: if r0 == 0 goto +11",
				"7: r6 = r0",
				"8: call 7",
				"9: r8 = r0",
				"10: if r8 & -6 goto +0",
				"11: r0 = 0",
				"12: r8 &= 0",
				"13: if r8 <= 45 goto +1",
				"15: r1 = r6",
				"16: r1 += r8",
				"17: r0 = *(u32 *)(r1 +16)",
				"17: path proven infeasible, pruned",
				"11: r0 = 0",
				"12: r8 &= 0",
				"13: if r8 <= 45 goto +1",
				"15: r1 = r6",
				"16: r1 += r8",
				"17: r0 = *(u32 *)(r1 +16)",
				"17: refinement failed: no more proofs",
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
