package loader

import (
	"encoding/json"
	"strings"
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/faultinject"
	"bcf/internal/obs"
	"bcf/internal/verifier"
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

	// The session's traffic totals must agree with the metrics.
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

// kernelTrack decodes tr and returns its complete events on tid 1, the
// kernel track.
func kernelTrack(t *testing.T, tr *obs.Tracer) []obs.TraceEvent {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var tf struct{ TraceEvents []obs.TraceEvent }
	if err := json.Unmarshal([]byte(sb.String()), &tf); err != nil {
		t.Fatal(err)
	}
	var out []obs.TraceEvent
	for _, e := range tf.TraceEvents {
		if e.TID == 1 && e.Ph == "X" {
			out = append(out, e)
		}
	}
	return out
}

// within reports whether event in lies inside event out on the timeline.
func within(in, out obs.TraceEvent) bool {
	const slack = 1e-3 // µs: the trace's float rounding
	return in.TS >= out.TS-slack && in.TS+in.Dur <= out.TS+out.Dur+slack
}

// TestKernelTelemetryFromRecord pins the kernel side's derived views to
// the record they come from: on a two-round load, every kernel-side
// metric, the kernel track and the journal's refine-round entries must
// agree with the verifier's and the refiner's Stats.
func TestKernelTelemetryFromRecord(t *testing.T) {
	reg := obs.NewRegistry()
	journal := obs.NewJournal(0)
	reg.SetJournal(journal)
	tr := obs.NewTracer()
	res := Load(twoCondProg(), Options{EnableBCF: true, Obs: reg, Trace: tr})
	if !res.Accepted {
		t.Fatalf("rejected: %v", res.Err)
	}
	st := res.RefineStats
	if len(st.Requests) != 2 || st.Unshipped != nil {
		t.Fatalf("want two shipped requests, got %+v", st)
	}
	snap := reg.Snapshot()

	for _, c := range []struct {
		name  string
		count int
		sum   int
	}{
		{obs.MCondBytes, len(st.Requests), res.CondBytes},
		{obs.MProofBytes, len(st.Requests), res.ProofBytes},
	} {
		h, _ := snap.Histogram(c.name)
		if int(h.Count) != c.count || int(h.Sum) != c.sum {
			t.Errorf("%s: count=%d sum=%v, record: %d requests, %d bytes", c.name, h.Count, h.Sum, c.count, c.sum)
		}
	}
	if got := snap.Counter(obs.MRefineRequests); got != int64(st.Granted+st.Failed) {
		t.Errorf("%s = %d, record: %d granted + %d failed", obs.MRefineRequests, got, st.Granted, st.Failed)
	}
	proved := 0
	for _, q := range st.Requests {
		if q.CheckDuration > 0 {
			proved++
		}
	}
	if h, _ := snap.Histogram(obs.MCheckSeconds); int(h.Count) != proved || proved != 2 {
		t.Errorf("%s: count=%d, record: %d rounds returned a proof", obs.MCheckSeconds, h.Count, proved)
	}
	for _, c := range snap.Counters {
		if c.Name == obs.MRefinementsFailed || c.Name == obs.MRefinementsReused {
			t.Errorf("a load with two distinct granted conditions created a %s series", c.Name)
		}
	}

	var verify, refines []obs.TraceEvent
	stages := map[string][]obs.TraceEvent{}
	for _, e := range kernelTrack(t, tr) {
		switch e.Name {
		case "verify":
			verify = append(verify, e)
		case "refine":
			refines = append(refines, e)
		default:
			stages[e.Name] = append(stages[e.Name], e)
		}
	}
	if len(verify) != 1 || len(refines) != len(st.Requests) {
		t.Fatalf("kernel track: %d verify, %d refine spans; want 1 and %d", len(verify), len(refines), len(st.Requests))
	}
	stageNames := []string{"track", "encode", "round", "check"}
	for _, name := range stageNames {
		if len(stages[name]) != len(refines) {
			t.Fatalf("kernel track: %d %s spans for %d requests", len(stages[name]), name, len(refines))
		}
	}
	for i, r := range refines {
		if !within(r, verify[0]) {
			t.Errorf("refine %d lies outside verify", i)
		}
		if r.Args["round"] != float64(i) || r.Args["insn"] != float64(st.Requests[i].Insn) {
			t.Errorf("refine %d args %v, record %+v", i, r.Args, st.Requests[i])
		}
		for _, name := range stageNames {
			if !within(stages[name][i], r) {
				t.Errorf("%s span of request %d lies outside its refine span", name, i)
			}
		}
		args := stages["round"][i].Args
		if args["cond_bytes"] != float64(st.Requests[i].CondBytes) || args["proof_bytes"] != float64(st.Requests[i].ProofBytes) {
			t.Errorf("round %d args %v, record %+v", i, args, st.Requests[i])
		}
	}

	granted := 0
	for _, e := range journal.Entries() {
		if e.Kind == obs.JKindRefine {
			granted++
		}
	}
	if granted != st.Granted {
		t.Errorf("journal holds %d %s entries for %d granted requests", granted, obs.JKindRefine, st.Granted)
	}
}

// TestUnshippedRefinementReported: a refinement that fails before its
// condition is shipped (the corpus's "refinement not triggered" family)
// still shows its refine and track spans, its track time and its
// failure, and ships no bytes.
func TestUnshippedRefinementReported(t *testing.T) {
	var p *ebpf.Program
	for _, e := range corpus.Generate() {
		if e.Expect == corpus.ExpectRejectUntriggered {
			p = e.Prog
			break
		}
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	res := Load(p, Options{EnableBCF: true, Obs: reg, Trace: tr})
	st := res.RefineStats
	if res.Accepted || len(st.Requests) != 0 || st.Unshipped == nil || st.Unshipped.Granted {
		t.Fatalf("want one unshipped failed refinement: accepted=%v %+v", res.Accepted, st)
	}
	snap := reg.Snapshot()
	if snap.Counter(obs.MRefinementsFailed) != 1 || snap.Counter(obs.MRefineRequests) != 1 {
		t.Errorf("failure counters: %+v", snap.Counters)
	}
	if h, _ := snap.Histogram(obs.MTrackSeconds); h.Count != 1 {
		t.Errorf("%s count = %d, want 1", obs.MTrackSeconds, h.Count)
	}
	if _, ok := snap.Histogram(obs.MCondBytes); ok {
		t.Errorf("%s recorded for an unshipped condition", obs.MCondBytes)
	}
	names := map[string]int{}
	for _, e := range kernelTrack(t, tr) {
		names[e.Name]++
	}
	if names["verify"] != 1 || names["refine"] != 1 || names["track"] != 1 || len(names) != 3 {
		t.Errorf("kernel track spans %v, want verify, refine and track once each", names)
	}
}

// TestReusedRefinementsCounted pins the record of a load whose
// refinements repeat one condition (a corpus loop program): one round,
// every later refinement granted from that proof, the reused count in
// the Result, the record and the bcf_refinements_reused_total series,
// and the reused count and time on the kernel track's verify span.
func TestReusedRefinementsCounted(t *testing.T) {
	var prog *ebpf.Program
	for _, e := range corpus.Generate() {
		if e.Family == corpus.Loop {
			prog = e.Prog
			break
		}
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	res := Load(prog, Options{EnableBCF: true, Obs: reg, Trace: tr, Verifier: verifier.Config{InsnLimit: 4000}})
	st := res.RefineStats
	if res.Rounds != 1 || len(st.Requests) != 1 {
		t.Fatalf("%d rounds, %d requests recorded; want 1 and 1", res.Rounds, len(st.Requests))
	}
	if res.Reused == 0 || res.Reused != st.Reused || st.Reused != st.Granted-1 || st.Failed != 0 {
		t.Fatalf("Result.Reused %d, record: %d reused, %d granted, %d failed; want reused = granted - 1",
			res.Reused, st.Reused, st.Granted, st.Failed)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.MRefinementsReused); got != int64(st.Reused) {
		t.Errorf("%s = %d, record: %d", obs.MRefinementsReused, got, st.Reused)
	}
	if got := snap.Counter(obs.MRefineRequests); got != int64(st.Granted) {
		t.Errorf("%s = %d, record: %d refinements", obs.MRefineRequests, got, st.Granted)
	}
	if h, _ := snap.Histogram(obs.MCondBytes); h.Count != 1 {
		t.Errorf("%s: count=%d, want the one shipped condition", obs.MCondBytes, h.Count)
	}

	// The reused refinements' count and time ride on the verify span.
	if st.ReusedTime <= 0 {
		t.Fatalf("ReusedTime = %v over %d reused refinements", st.ReusedTime, st.Reused)
	}
	var verify []obs.TraceEvent
	for _, e := range kernelTrack(t, tr) {
		if e.Name == "verify" {
			verify = append(verify, e)
		}
	}
	if len(verify) != 1 {
		t.Fatalf("kernel track: %d verify spans, want 1", len(verify))
	}
	args := verify[0].Args
	if args["reused"] != float64(st.Reused) || args["reused_us"] != float64(st.ReusedTime)/1e3 {
		t.Errorf("verify span args %v, record: %d reused in %v", args, st.Reused, st.ReusedTime)
	}
	if us, _ := args["reused_us"].(float64); us > verify[0].Dur {
		t.Errorf("reused refinements took %v µs of a %v µs verify span", us, verify[0].Dur)
	}
}
