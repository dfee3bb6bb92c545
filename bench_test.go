package bcf

// The benchmark suite regenerates every quantity the paper's evaluation
// reports, one benchmark per table/figure (see DESIGN.md's experiment
// index), plus ablations of the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Custom metrics reported via b.ReportMetric:
//	accepted/512        §6.2 acceptance (BenchmarkAcceptance*)
//	proofB/op           proof bytes per refinement
//	condB/op            condition bytes per refinement
//	pctUnder4K          Figure 8's headline share
//	trackInsns/op       Table 3 symbolic track length

import (
	"fmt"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/eval"
	"bcf/internal/expr"
	"bcf/internal/loader"
	"bcf/internal/proof"
	"bcf/internal/solver"
	"bcf/internal/verifier"
	"bcf/internal/zone"
)

// corpusInsnLimit matches internal/corpus's evaluation budget.
const corpusInsnLimit = 4000

// fig2Program is the paper's running example.
func fig2Program() *Program {
	return &Program{
		Name: "figure2", Type: ProgTracepoint,
		Insns: MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r1 += r2
			r3 = 0xf
			r3 -= r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
		Maps: []*MapSpec{{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}},
	}
}

// fig2Cond is the Figure 2 refinement condition, used by the proof
// micro-benchmarks. Each call builds it in a new table, as each round's
// condition is decoded into one.
func fig2Cond() *expr.Expr {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m))
	return tab.Ule(e, tab.Const(15, 64))
}

// ---- §6.2 acceptance (the headline experiment) ----

// BenchmarkAcceptanceBaseline runs all 512 programs through the baseline
// verifier (paper: 0 accepted).
func BenchmarkAcceptanceBaseline(b *testing.B) {
	entries := corpus.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accepted := 0
		for _, e := range entries {
			res := loader.Load(e.Prog, loader.Options{
				Verifier: verifier.Config{InsnLimit: corpusInsnLimit},
			})
			if res.Accepted {
				accepted++
			}
		}
		b.ReportMetric(float64(accepted), "accepted/512")
	}
}

// BenchmarkAcceptanceBCF runs all 512 programs with BCF enabled
// (paper: 403 accepted = 78.7%).
func BenchmarkAcceptanceBCF(b *testing.B) {
	entries := corpus.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accepted := 0
		for _, e := range entries {
			res := loader.Load(e.Prog, loader.Options{
				EnableBCF: true,
				Verifier:  verifier.Config{InsnLimit: corpusInsnLimit},
			})
			if res.Accepted {
				accepted++
			}
		}
		b.ReportMetric(float64(accepted), "accepted/512")
	}
}

// BenchmarkAcceptanceBCFParallel runs the full evaluation through the
// worker pool (parallelism = GOMAXPROCS, one shared proof cache); its
// ns/op against BenchmarkAcceptanceBCF is the pipeline's wall-clock
// speedup, and cacheHitPct is the cross-program proof-sharing dividend.
func BenchmarkAcceptanceBCFParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev := eval.RunOpts(eval.Options{InsnLimit: corpusInsnLimit})
		b.ReportMetric(float64(ev.Acceptance().BCFAccepted), "accepted/512")
		b.ReportMetric(ev.Cache.HitRate(), "cacheHitPct")
	}
}

// ---- Table 3: component metrics ----

// BenchmarkTable3ProofCheck measures kernel-side proof checking alone
// (paper: 31/49/1845 µs).
func BenchmarkTable3ProofCheck(b *testing.B) {
	out, err := solver.Prove(nil, fig2Cond(), solver.Options{})
	if err != nil || !out.Proven {
		b.Fatalf("prove: %v", err)
	}
	raw, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(raw)), "proofB/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf, err := bcfenc.DecodeProof(raw)
		if err != nil {
			b.Fatal(err)
		}
		// A new table per check, as each round's condition has one.
		if err := proof.Check(fig2Cond(), pf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ProofCheckBitblast measures checking of a resolution
// refutation (the large-proof regime).
func BenchmarkTable3ProofCheckBitblast(b *testing.B) {
	out, err := solver.Prove(nil, fig2Cond(), solver.Options{DisableRewriteTier: true})
	if err != nil || !out.Proven {
		b.Fatalf("prove: %v", err)
	}
	raw, err := bcfenc.EncodeProof(out.Proof)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(raw)), "proofB/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf, err := bcfenc.DecodeProof(raw)
		if err != nil {
			b.Fatal(err)
		}
		// A new table per check, as each round's condition has one.
		if err := proof.Check(fig2Cond(), pf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ProofGeneration measures the user-space side (the
// expensive half of the workload separation).
func BenchmarkTable3ProofGeneration(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := solver.Prove(nil, fig2Cond(), solver.Options{})
		if err != nil || !out.Proven {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ConditionGeneration measures the kernel-side symbolic
// tracking + encoding via a full refinement round trip (minus solving).
func BenchmarkTable3ConditionGeneration(b *testing.B) {
	prog := fig2Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, WithBCF())
		if !rep.Accepted {
			b.Fatal(rep.Err)
		}
		d := rep.RefinementDetails()
		b.ReportMetric(float64(d[0].CondBytes), "condB/op")
		b.ReportMetric(float64(d[0].TrackLen), "trackInsns/op")
	}
}

// ---- Figure 8: proof size distribution ----

// BenchmarkFigure8ProofSizes runs the refinement-heavy slice of the
// dataset and reports the share of proofs under one page
// (paper: 99.4%).
func BenchmarkFigure8ProofSizes(b *testing.B) {
	entries := corpus.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, under := 0, 0
		var bytes int
		for _, e := range entries[:403] { // the accept-family slice
			res := loader.Load(e.Prog, loader.Options{
				EnableBCF: true,
				Verifier:  verifier.Config{InsnLimit: corpusInsnLimit},
			})
			if res.RefineStats == nil {
				continue
			}
			for _, q := range res.RefineStats.Requests {
				if q.ProofBytes == 0 {
					continue
				}
				total++
				bytes += q.ProofBytes
				if q.ProofBytes < 4096 {
					under++
				}
			}
		}
		if total > 0 {
			b.ReportMetric(100*float64(under)/float64(total), "pctUnder4K")
			b.ReportMetric(float64(bytes)/float64(total), "proofB/op")
		}
	}
}

// ---- §6.3 analysis duration ----

// BenchmarkDurationSplit loads one representative program per family and
// reports the kernel/user time split (paper: 79.3% / 20.7%).
func BenchmarkDurationSplit(b *testing.B) {
	entries := corpus.Generate()
	picks := []int{0, 100, 180, 260, 340} // one per accepted family
	var kernel, user int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range picks {
			res := loader.Load(entries[p].Prog, loader.Options{
				EnableBCF: true,
				Verifier:  verifier.Config{InsnLimit: corpusInsnLimit},
			})
			kernel += res.KernelTime.Nanoseconds()
			user += res.UserTime.Nanoseconds()
		}
	}
	if kernel+user > 0 {
		b.ReportMetric(100*float64(kernel)/float64(kernel+user), "pctKernel")
	}
}

// ---- Ablations (DESIGN.md "Design choices worth ablating") ----

// BenchmarkAblationRewriteTier proves the Figure 2 condition with the
// two-tier prover (small proofs)...
func BenchmarkAblationRewriteTier(b *testing.B) {
	benchProofBytes(b, solver.Options{})
}

// ...and BenchmarkAblationBitblastOnly without the rewrite tier: proof
// size and generation time inflate (cf. the paper's PCC comparison, §8).
func BenchmarkAblationBitblastOnly(b *testing.B) {
	benchProofBytes(b, solver.Options{DisableRewriteTier: true})
}

func benchProofBytes(b *testing.B, opts solver.Options) {
	// (x & 0xf) + (y & 0xf) <= 30: the adder's carry chain defeats pure
	// gate-level constant folding, so the bit-blast tier must do real
	// resolution work while the rewrite tier closes it with two lemmas.
	// Each iteration proves it in a new table, as each round's condition
	// is decoded into one.
	cond := func() *expr.Expr {
		tab := expr.NewTable(0)
		x, y := tab.Var(0, 16), tab.Var(1, 16)
		sum := tab.Add(tab.And(x, tab.Const(0xf, 16)), tab.And(y, tab.Const(0xf, 16)))
		return tab.Ule(sum, tab.Const(30, 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := solver.Prove(nil, cond(), opts)
		if err != nil || !out.Proven {
			b.Fatal(err)
		}
		raw, err := bcfenc.EncodeProof(out.Proof)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(raw)), "proofB/op")
	}
}

// BenchmarkAblationBackwardAnalysis measures symbolic-tracking length
// with the §4 backward analysis on...
func BenchmarkAblationBackwardAnalysis(b *testing.B) {
	benchTrackLen(b, false)
}

// ...and BenchmarkAblationNoBackwardAnalysis with tracking forced to the
// path head: the tracked suffix grows.
func BenchmarkAblationNoBackwardAnalysis(b *testing.B) {
	benchTrackLen(b, true)
}

func benchTrackLen(b *testing.B, disable bool) {
	// A long unrelated preamble precedes the Figure 2 pattern; backward
	// analysis skips it, full-path tracking pays for it.
	preamble := ""
	for i := 0; i < 48; i++ {
		preamble += fmt.Sprintf("r6 = %d\nr6 += %d\n", i, i+1)
	}
	prog := &Program{
		Name: "prefixed", Type: ProgTracepoint,
		Insns: MustAssemble(preamble + `
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r1 += r2
			r3 = 0xf
			r3 -= r2
			r1 += r3
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
		Maps: []*MapSpec{{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := loader.Load(prog, loader.Options{
			EnableBCF:       true,
			DisableBackward: disable,
		})
		if !res.Accepted {
			b.Fatal(res.Err)
		}
		b.ReportMetric(float64(res.RefineStats.Requests[0].TrackLen), "trackInsns/op")
	}
}

// BenchmarkAblationProofCache measures repeat-load latency with the §7
// condition/proof cache...
func BenchmarkAblationProofCache(b *testing.B) {
	prog := fig2Program()
	cache := NewProofCache()
	Verify(prog, WithBCF(), WithProofCache(cache)) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, WithBCF(), WithProofCache(cache))
		if !rep.Accepted || rep.CacheHits == 0 {
			b.Fatal("cache miss on repeat load")
		}
	}
}

// ...and BenchmarkAblationNoProofCache without it (every load re-solves).
func BenchmarkAblationNoProofCache(b *testing.B) {
	prog := fig2Program()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, WithBCF())
		if !rep.Accepted {
			b.Fatal(rep.Err)
		}
	}
}

// BenchmarkAblationPruning verifies a branch ladder with state pruning
// on, BenchmarkAblationNoPruning with it off.
func BenchmarkAblationPruning(b *testing.B)   { benchPruning(b, false) }
func BenchmarkAblationNoPruning(b *testing.B) { benchPruning(b, true) }

func benchPruning(b *testing.B, disable bool) {
	src := "r0 = 0\nr6 = r1\n"
	for i := 0; i < 14; i++ {
		src += "r2 = *(u32 *)(r6 +0)\nif r2 == 0 goto +1\nr0 += 0\n"
	}
	src += "exit\n"
	prog := &Program{Name: "ladder", Type: ProgTracepoint, Insns: MustAssemble(src)}
	opts := []Option{}
	if disable {
		opts = append(opts, WithoutPruning())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, opts...)
		if !rep.Accepted {
			b.Fatal(rep.Err)
		}
		b.ReportMetric(float64(rep.Stats.InsnProcessed), "insns/op")
	}
}

// ---- substrate micro-benchmarks ----

// BenchmarkVerifierBaseline measures raw abstract-interpretation speed on
// an accepted program (the kernel-space fast path BCF must not perturb).
func BenchmarkVerifierBaseline(b *testing.B) {
	prog := &Program{
		Name: "masked", Type: ProgTracepoint,
		Insns: MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r1 = r0
			r2 = *(u64 *)(r1 +0)
			r2 &= 0xf
			r1 += r2
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
		Maps: []*MapSpec{{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Verify(prog); !rep.Accepted {
			b.Fatal(rep.Err)
		}
	}
}

// BenchmarkVerifierStress measures one verifier walk over the worst-case
// stress program: 2^11 mutually incomparable paths, so pruning never
// fires and the whole tree is walked.
func BenchmarkVerifierStress(b *testing.B) {
	prog := corpus.ParallelStress(11, 64, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, WithInsnLimit(1_000_000))
		if !rep.Accepted {
			b.Fatal(rep.Err)
		}
		b.ReportMetric(float64(rep.Stats.InsnProcessed), "insns/op")
	}
}

// BenchmarkInterpreter measures the concrete-execution oracle.
func BenchmarkInterpreter(b *testing.B) {
	prog := fig2Program()
	ctx := make([]byte, prog.Type.CtxSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInterp(prog, int64(i))
		if _, fault := in.Run(ctx); fault != nil {
			b.Fatal(fault)
		}
	}
}

// BenchmarkConditionEncode measures the BCF wire format.
func BenchmarkConditionEncode(b *testing.B) {
	cond := fig2Cond()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: cond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionDecode measures kernel-side decoding of untrusted
// bytes.
func BenchmarkConditionDecode(b *testing.B) {
	raw, err := bcfenc.EncodeCondition(&bcfenc.Condition{Cond: fig2Cond()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcfenc.DecodeCondition(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalHarness exercises the full table generator once (kept
// small: Table 2 only, which needs no verification run).
func BenchmarkEvalHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := eval.Table2String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkCorpusGenerate measures dataset generation.
func BenchmarkCorpusGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(corpus.Generate()) != corpus.Size {
			b.Fatal("bad corpus")
		}
	}
}

// sanity: the bench file's helpers stay in sync with the corpus layout.
func TestBenchFamilySlices(t *testing.T) {
	entries := corpus.Generate()
	for _, p := range []int{0, 100, 180, 260, 340} {
		if entries[p].Expect != corpus.ExpectAccept {
			t.Fatalf("pick %d (%s) is not an accept-family program", p, entries[p].Family)
		}
	}
	if entries[259].Expect != corpus.ExpectAccept {
		t.Fatalf("entries[:260] must be accept families: %s", fmt.Sprint(entries[259].Family))
	}
}

// verify the ebpf alias surface compiles against internal types.
var _ = ebpf.StackSize

// BenchmarkZoneComparator runs the PREVAIL-analog zone analyzer over the
// dataset (§6.2 comparison; expected acceptance ≈0.8%).
func BenchmarkZoneComparator(b *testing.B) {
	entries := corpus.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accepted := 0
		for _, e := range entries {
			if zone.Analyze(e.Prog) == nil {
				accepted++
			}
		}
		b.ReportMetric(float64(accepted), "accepted/512")
	}
}

// BenchmarkExtensionLoopInvariant measures the §7 loop-fixpoint
// extension: the annotated load analyzes the loop in a single pass.
func BenchmarkExtensionLoopInvariant(b *testing.B) {
	prog := &Program{
		Name: "loop", Type: ProgTracepoint,
		Insns: MustAssemble(`
			r7 = r1
			r6 = 0
		loop:
			r6 += 1
			r2 = *(u32 *)(r7 +0)
			if r2 != 0 goto loop
			r0 = 0
			exit
		`),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Verify(prog, WithInsnLimit(100_000), WithLoopInvariant(2, 6, 0, ^uint64(0)))
		if !rep.Accepted {
			b.Fatal(rep.Err)
		}
		b.ReportMetric(float64(rep.Stats.InsnProcessed), "insns/op")
	}
}
