package loader

import (
	"strings"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

var testMap16 = &ebpf.MapSpec{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 4}

const lookupPrologue = `
	r1 = map[0]
	r2 = r10
	r2 += -4
	*(u32 *)(r10 -4) = 0
	call 1
	if r0 == 0 goto miss
`
const lookupEpilogue = `
miss:
	r0 = 0
	exit
`

func prog(src string, maps ...*ebpf.MapSpec) *ebpf.Program {
	return &ebpf.Program{
		Name:  "test",
		Type:  ebpf.ProgTracepoint,
		Insns: ebpf.MustAssemble(src),
		Maps:  maps,
	}
}

// loadBoth verifies with the baseline and with BCF, expecting the
// baseline to reject and BCF to accept (the paper's headline scenario).
func expectBCFRescues(t *testing.T, p *ebpf.Program) *Result {
	t.Helper()
	base := Load(p, Options{})
	if base.Accepted {
		t.Fatalf("baseline unexpectedly accepted (nothing for BCF to do)")
	}
	res := Load(p, Options{EnableBCF: true})
	if !res.Accepted {
		t.Fatalf("BCF failed to rescue: %v (baseline: %v)", res.Err, base.Err)
	}
	if res.RefineStats == nil || res.RefineStats.Granted == 0 {
		t.Fatalf("acceptance without refinements?")
	}
	return res
}

// expectBothReject checks that unsafe programs stay rejected under BCF.
func expectBothReject(t *testing.T, p *ebpf.Program) *Result {
	t.Helper()
	if base := Load(p, Options{}); base.Accepted {
		t.Fatalf("baseline accepted an unsafe program")
	}
	res := Load(p, Options{EnableBCF: true})
	if res.Accepted {
		t.Fatalf("BCF accepted an unsafe program")
	}
	return res
}

// runConcrete executes the accepted program in the interpreter as a
// safety oracle.
func runConcrete(t *testing.T, p *ebpf.Program, seeds int) {
	t.Helper()
	for seed := int64(0); seed < int64(seeds); seed++ {
		in := ebpf.NewInterp(p, seed)
		if _, fault := in.Run(make([]byte, p.Type.CtxSize())); fault != nil {
			t.Fatalf("accepted program faulted (seed %d): %v", seed, fault)
		}
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	// The paper's running example: r2+r3 is exactly 15 but the baseline
	// over-approximates to [0,30].
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r3 = 0xf
		r3 -= r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := expectBCFRescues(t, p)
	runConcrete(t, p, 25)
	rs := res.RefineStats.Requests
	if len(rs) == 0 {
		t.Fatal("no refinement requests recorded")
	}
	if rs[0].CondBytes == 0 || rs[0].ProofBytes == 0 {
		t.Errorf("stats not recorded: %+v", rs[0])
	}
	if rs[0].TrackLen == 0 {
		t.Errorf("zero track length")
	}
}

func TestListing7BoundedBuffer(t *testing.T) {
	// KubeArmor-style: a check guarantees at least 6 free bytes; the
	// remaining size is passed to probe_read into a 16-byte buffer on the
	// stack. str_pos = pos+5; read_size = 16 - str_pos. Baseline loses
	// the relation; BCF proves read_size <= remaining space.
	p := prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)       ; r6 = type_pos (untrusted)
		r6 &= 0xf                  ; bounded input, <= 15
		r7 = 16
		r7 -= r6                   ; MAX - type_pos
		if r7 < 6 goto miss        ; ensure >= 6 bytes available
		r8 = r6
		r8 += 5                    ; str_pos = type_pos + 1 + sizeof(int)
		r9 = 16
		r9 -= r8                   ; read_size = MAX - str_pos
		r1 = r10
		r1 += -16                  ; &buf[0]
		r2 = r9                    ; size
		r3 = 0
		call 4                     ; probe_read(buf, read_size, src)
		r0 = 0
		exit
	`+lookupEpilogue, testMap16)
	res := expectBCFRescues(t, p)
	runConcrete(t, p, 25)
	_ = res
}

func TestListing8UnreachablePath(t *testing.T) {
	// Cilium WireGuard-style: after s>>31 and &-134, w1 is 0 or -134; the
	// path reaching the oversized access requires w1 == -136, which is
	// infeasible. The baseline walks it anyway and rejects; BCF proves
	// the path constraint unsatisfiable (vacuously true condition).
	p := prog(lookupPrologue+`
		r6 = *(u32 *)(r0 +0)
		w1 = w6
		w1 s>>= 31
		w1 &= -134
		if w1 s> -1 goto safe
		if w1 != -136 goto safe
		r2 = 100
		r1 = r0
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	safe:
		r0 = 0
		exit
	`+lookupEpilogue, testMap16)
	res := expectBCFRescues(t, p)
	runConcrete(t, p, 25)
	_ = res
}

func TestListing9RegisterAlias(t *testing.T) {
	// BCC-style: w2 and w5 come from the same source; only w2 is
	// bounds-checked. The baseline does not link 32-bit movs; BCF's
	// symbolic expressions make the equivalence explicit.
	p := prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		w2 = w6
		w5 = w6
		if w2 > 12 goto miss
		w5 = w5
		r1 = r0
		r1 += r5
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := expectBCFRescues(t, p)
	runConcrete(t, p, 25)
	_ = res
}

func TestUnsafeStaysRejectedWithCounterexample(t *testing.T) {
	// Listing 1: r2 in [0,30] genuinely reaches offset 30 in a 16-byte
	// value. BCF must fail to prove and report a counterexample.
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r2 <<= 1
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := expectBothReject(t, p)
	if res.Counterexample == nil {
		t.Fatalf("expected a counterexample, got error only: %v", res.Err)
	}
}

func TestUnsafeHelperSizeRejected(t *testing.T) {
	p := prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0x1f          ; up to 31 > 16 available
		r6 += 1
		r1 = r10
		r1 += -16
		r2 = r6
		r3 = 0
		call 4
		r0 = 0
		exit
	`+lookupEpilogue, testMap16)
	expectBothReject(t, p)
}

func TestShiftParityRescued(t *testing.T) {
	// (x & 0xf) << 1 is at most 30; with a 32-byte value this is safe but
	// only provable... the baseline CAN prove this one via tnum+bounds.
	// Use 31-byte value with 1-byte access at offset <=30: baseline
	// accepts. Tighten: value 16 bytes, offset (x&0x7)<<1 <= 14: baseline
	// accepts too. A genuinely imprecise case: (x&0xf)+(x&0xf) in [0,30]
	// with access size 2 into 32 bytes: umax 30+2=32 <= 32 — accepted.
	// Make it need the parity fact: value_size 16, offset = (x&0x7)<<1,
	// access 2 bytes: max 14+2=16 <= 16: baseline accepts as well. So use
	// the relational variant, which the baseline cannot see:
	// off = (x&0xf); off2 = 15-off; total <= 15 with 1-byte access.
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r3 = 15
		r3 -= r2
		r1 += r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	expectBCFRescues(t, p)
	runConcrete(t, p, 10)
}

func TestSpilledBoundLostThenRescued(t *testing.T) {
	// An 8-byte spill keeps the chain symbolically trackable even though
	// the check happened before the spill.
	p := prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		r7 = 15
		r7 -= r6
		*(u64 *)(r10 -8) = r7
		r8 = *(u64 *)(r10 -8)
		r1 = r0
		r1 += r6
		r1 += r8
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	expectBCFRescues(t, p)
	runConcrete(t, p, 10)
}

func TestSubRegisterSpillStillRejected(t *testing.T) {
	// The §5 limitation: a 4-byte spill breaks symbolic tracking; the
	// weakened condition does not hold, the solver finds a
	// counterexample, and the program stays rejected.
	p := prog(lookupPrologue+`
		r6 = *(u64 *)(r0 +0)
		r6 &= 0xf
		r7 = 15
		r7 -= r6
		*(u32 *)(r10 -8) = r7
		r8 = *(u32 *)(r10 -8)
		r1 = r0
		r1 += r6
		r1 += r8
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := Load(prog(``), Options{}) // placeholder to silence linters
	_ = res
	expectBothReject(t, p)
}

func TestUninstrumentedSiteStillRejected(t *testing.T) {
	// Variable ctx access is a rejection site BCF does not instrument
	// (the paper's 0.8% bucket).
	p := prog(`
		r2 = *(u32 *)(r1 +0)
		r2 &= 3
		r1 += r2
		r0 = *(u32 *)(r1 +4)
		exit
	`)
	res := Load(p, Options{EnableBCF: true})
	if res.Accepted {
		t.Fatal("variable ctx access must stay rejected")
	}
	if res.RefineStats.Granted != 0 {
		t.Fatal("refinement should not trigger at uninstrumented sites")
	}
}

func TestProofCacheAcrossLoads(t *testing.T) {
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r3 = 0xf
		r3 -= r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	cache := NewProofCache()
	first := Load(p, Options{EnableBCF: true, ProofCache: cache})
	if !first.Accepted || first.CacheHits != 0 {
		t.Fatalf("first load: %+v", first)
	}
	second := Load(p, Options{EnableBCF: true, ProofCache: cache})
	if !second.Accepted {
		t.Fatalf("second load rejected: %v", second.Err)
	}
	if second.CacheHits == 0 {
		t.Fatal("second load should hit the proof cache (deterministic conditions)")
	}
	if s := cache.Snapshot(); s.Hits == 0 || s.Size == 0 {
		t.Fatalf("cache stats: %+v", s)
	}
}

func TestBCFDoesNotAffectAcceptedPrograms(t *testing.T) {
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	base := Load(p, Options{})
	if !base.Accepted {
		t.Fatalf("baseline should accept: %v", base.Err)
	}
	res := Load(p, Options{EnableBCF: true})
	if !res.Accepted || res.RefineStats.Granted != 0 {
		t.Fatalf("BCF must not perturb accepted programs: %+v", res)
	}
}

func TestTimingSplitRecorded(t *testing.T) {
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r3 = 0xf
		r3 -= r2
		r1 += r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := Load(p, Options{EnableBCF: true})
	if !res.Accepted {
		t.Fatal(res.Err)
	}
	if res.KernelTime <= 0 || res.UserTime <= 0 || res.TotalTime <= 0 {
		t.Fatalf("timing split missing: kernel=%v user=%v total=%v",
			res.KernelTime, res.UserTime, res.TotalTime)
	}
}

func TestErrorMessagesSurvive(t *testing.T) {
	p := prog(`
		r0 = *(u64 *)(r10 -520)
		exit
	`)
	res := Load(p, Options{EnableBCF: true})
	if res.Accepted || res.Err == nil {
		t.Fatal("expected rejection with error")
	}
	if !strings.Contains(res.Err.Error(), "stack") {
		t.Fatalf("unexpected error: %v", res.Err)
	}
}

func TestVerifierConfigForwarded(t *testing.T) {
	p := prog(`
		r6 = r1
		r0 = 0
	loop:
		r0 += 1
		r2 = *(u32 *)(r6 +0)
		if r2 != 0 goto loop
		exit
	`)
	res := Load(p, Options{EnableBCF: true, Verifier: verifier.Config{InsnLimit: 500}})
	if res.Accepted {
		t.Fatal("expected insn-limit rejection")
	}
	if !strings.Contains(res.Err.Error(), "too large") {
		t.Fatalf("unexpected error: %v", res.Err)
	}
}

func TestModuloOffsetRescued(t *testing.T) {
	// Exact division tracking (an engineering extension past the paper's
	// implementation, cf. §5): an offset computed with MOD is provable.
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 %= 16
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	res := expectBCFRescues(t, p)
	runConcrete(t, p, 10)
	// The remainder bound comes from the rewrite tier's urem lemma, so
	// the proof stays small.
	if rs := res.RefineStats.Requests; rs[0].ProofBytes > 1024 {
		t.Errorf("mod proof unexpectedly large: %d bytes", rs[0].ProofBytes)
	}
}

func TestDivisionOffsetRescued(t *testing.T) {
	// off = x/32 with x <= 255 gives off <= 7; with a relational twist
	// the complete tier proves it through the divider relation.
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xff
		r2 /= 32
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	expectBCFRescues(t, p)
	runConcrete(t, p, 10)
}

func TestUnsafeModuloStillRejected(t *testing.T) {
	// off = x % 32 reaches 31 in a 16-byte value: genuinely unsafe.
	p := prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 %= 32
		r1 += r2
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
	expectBothReject(t, p)
}
