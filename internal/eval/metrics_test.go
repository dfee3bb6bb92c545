package eval

import (
	"encoding/json"
	"strings"
	"testing"

	"bcf/internal/obs"
)

// TestEvaluationPopulatesTelemetry runs a corpus slice in parallel with a
// registry and tracer attached and asserts the end-to-end telemetry
// contract of `bcfbench -metrics -tracefile`: per-stage latency
// histograms populated, pipeline counters consistent with the evaluation
// aggregates, and a well-formed multi-process Chrome trace.
func TestEvaluationPopulatesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation slice run")
	}
	const limit = 16
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	ev := RunOpts(Options{
		InsnLimit:   4000,
		Parallelism: 4,
		Limit:       limit,
		Obs:         reg,
		Trace:       tr,
	})
	if len(ev.Results) != limit {
		t.Fatalf("results = %d", len(ev.Results))
	}
	snap := reg.Snapshot()

	// Each program is loaded twice (baseline + BCF).
	if got := snap.Counter(obs.MLoadsTotal); got != 2*limit {
		t.Errorf("%s = %d, want %d", obs.MLoadsTotal, got, 2*limit)
	}
	for _, name := range []string{
		obs.MLoadSeconds, obs.MVerifySeconds, obs.MKernelSeconds, obs.MUserSeconds,
		obs.MEncodeSeconds, obs.MRoundSeconds, obs.MProveSeconds,
		obs.MCheckSeconds, obs.MCondBytes, obs.MProofBytes,
	} {
		h, ok := snap.Histogram(name)
		if !ok || h.Count == 0 {
			t.Errorf("stage histogram %s empty (ok=%v)", name, ok)
		}
	}

	// Counter/aggregate cross-checks: the cond-byte histogram counts the
	// wire ledger's rounds, the refinement counter every refinement, and
	// the registry cond-byte sum equals the per-program totals the tables
	// are built from.
	var wantCond, wantProof, wantRequests, wantAttempts int64
	for _, r := range ev.Results {
		wantCond += int64(r.CondBytes)
		wantProof += int64(r.ProofBytes)
		wantRequests += int64(len(r.RefineStats.Requests))
		wantAttempts += int64(r.RefineStats.Granted + r.RefineStats.Failed)
	}
	if wantRequests == 0 {
		t.Fatal("corpus slice produced no refinements; widen the slice")
	}
	ch, _ := snap.Histogram(obs.MCondBytes)
	if ch.Count != wantRequests || int64(ch.Sum) != wantCond {
		t.Errorf("cond bytes: metric (count=%d sum=%v) != results (requests=%d cond=%d)",
			ch.Count, ch.Sum, wantRequests, wantCond)
	}
	ph, _ := snap.Histogram(obs.MProofBytes)
	if int64(ph.Sum) != wantProof {
		t.Errorf("proof bytes: metric sum %v != results %d", ph.Sum, wantProof)
	}
	if got := snap.Counter(obs.MRefineRequests); got != wantAttempts {
		t.Errorf("%s = %d, want %d", obs.MRefineRequests, got, wantAttempts)
	}

	// Cache traffic counted in both the cache stats and the registry.
	if hits := snap.Counter(obs.MCacheHits); int(hits) != ev.Cache.Hits {
		t.Errorf("cache hits: metric %d != eval %d", hits, ev.Cache.Hits)
	}
	// The cache counts a lookup that joins a concurrent in-flight
	// computation as a miss and as coalesced; the registry counts it as
	// coalesced only.
	coalesced := snap.Counter(obs.MCacheCoalesced)
	if int(coalesced) != ev.Cache.Coalesced {
		t.Errorf("cache coalesced: metric %d != eval %d", coalesced, ev.Cache.Coalesced)
	}
	if misses := snap.Counter(obs.MCacheMisses); int(misses+coalesced) != ev.Cache.Misses {
		t.Errorf("cache misses: metric %d + coalesced %d != eval %d", misses, coalesced, ev.Cache.Misses)
	}

	// The trace must parse and contain one process per program, with the
	// loader/kernel thread naming used by the Perfetto view.
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int64          `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &ct); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	procs := map[int64]bool{}
	threads := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "process_name":
			procs[e.PID] = true
		case "thread_name":
			threads[e.Args["name"].(string)] = true
		}
	}
	if len(procs) != limit {
		t.Errorf("trace names %d processes, want %d", len(procs), limit)
	}
	if !threads["loader"] || !threads["kernel"] {
		t.Errorf("trace missing loader/kernel thread names: %v", threads)
	}
}
