package loader

import (
	"strings"
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/faultinject"
	"bcf/internal/obs"
)

// obsFig2 is the Figure 2 program (baseline rejects, BCF rescues with
// exactly one refinement) used by the telemetry end-to-end tests.
func obsFig2() *ebpf.Program {
	return prog(lookupPrologue+`
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
}

// TestLoadPopulatesStageMetrics drives one full BCF load with a registry
// and tracer attached and asserts every pipeline stage recorded at least
// one sample: this is the end-to-end contract behind `bcfbench -metrics`.
func TestLoadPopulatesStageMetrics(t *testing.T) {
	p := obsFig2()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	res := Load(p, Options{EnableBCF: true, Obs: reg, Trace: tr})
	if !res.Accepted {
		t.Fatalf("rejected: %v", res.Err)
	}
	snap := reg.Snapshot()

	// Every stage of the refinement pipeline must have observed samples.
	for _, name := range []string{
		obs.MLoadSeconds, obs.MVerifySeconds, obs.MKernelSeconds, obs.MUserSeconds,
		obs.MEncodeSeconds, obs.MTrackSeconds, obs.MRoundSeconds,
		obs.MProveSeconds, obs.MProveRewriteSeconds,
		obs.MCheckSeconds, obs.MCondBytes, obs.MProofBytes,
	} {
		h, ok := snap.Histogram(name)
		if !ok || h.Count == 0 {
			t.Errorf("stage histogram %s not populated (ok=%v)", name, ok)
		}
	}
	for _, name := range []string{
		obs.MLoadsTotal, obs.MLoadsAccepted, obs.MInsnsProcessed,
		obs.MPathsExplored, obs.MRefineRequests, obs.MRefinementsGranted,
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s not incremented", name)
		}
	}
	if snap.Counter(obs.Label(obs.MProveTier, "tier", "rewrite")) == 0 {
		t.Error("prove-tier counter not incremented")
	}

	// The session wire ledger must agree with the result and the metrics.
	if res.CondBytes == 0 || res.ProofBytes == 0 {
		t.Fatalf("result wire totals empty: %+v", res)
	}
	ch, _ := snap.Histogram(obs.MCondBytes)
	if int(ch.Sum) != res.CondBytes {
		t.Errorf("cond bytes: metric sum %v != result %d", ch.Sum, res.CondBytes)
	}
	ph, _ := snap.Histogram(obs.MProofBytes)
	if int(ph.Sum) != res.ProofBytes {
		t.Errorf("proof bytes: metric sum %v != result %d", ph.Sum, res.ProofBytes)
	}

	// The trace must contain spans for verify, refinement and check.
	if tr.Len() == 0 {
		t.Fatal("tracer recorded no events")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{`"verify"`, `"refine"`, `"check"`, `"prove"`} {
		if !strings.Contains(sb.String(), span) {
			t.Errorf("trace missing %s span", span)
		}
	}
}

// TestBaselineFailureCountedOrganic: a fault-free rejection must be
// attributed origin="organic" in the failure counters.
func TestBaselineFailureCountedOrganic(t *testing.T) {
	p := obsFig2()
	reg := obs.NewRegistry()
	res := Load(p, Options{Obs: reg}) // baseline: rejects the relational access
	if res.Accepted {
		t.Fatal("baseline unexpectedly accepted")
	}
	snap := reg.Snapshot()
	want := obs.Labels(obs.MLoadFailures, "class", res.ErrClass.String(), "origin", "organic")
	if snap.Counter(want) != 1 {
		t.Fatalf("missing organic failure counter %s; counters: %+v", want, snap.Counters)
	}
}

// TestInjectedFailureCountedInjected: when a corrupting fault fired, the
// rejection must be attributed origin="injected" and the fault itself
// must show up in faultinject_fired_total.
func TestInjectedFailureCountedInjected(t *testing.T) {
	p := obsFig2()
	reg := obs.NewRegistry()
	inj := faultinject.New(13).WithRegistry(reg).Arm(faultinject.ProofCorrupt)
	res := Load(p, Options{EnableBCF: true, Obs: reg, Fault: inj})
	if res.Accepted {
		t.Fatal("accepted despite proof corruption")
	}
	if !inj.CorruptionFired() {
		t.Fatal("fault never fired (program did not refine?)")
	}
	snap := reg.Snapshot()
	want := obs.Labels(obs.MLoadFailures, "class", res.ErrClass.String(), "origin", "injected")
	if snap.Counter(want) != 1 {
		t.Fatalf("missing injected failure counter %s; counters: %+v", want, snap.Counters)
	}
	if snap.Counter(obs.Label(obs.MFaultsInjected, "point", faultinject.ProofCorrupt.String())) == 0 {
		t.Fatal("faultinject_fired_total not incremented")
	}
}
