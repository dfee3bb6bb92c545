package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables the
// benchmark reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer = %v, want %v", layer, perLayer)
	}
}

// checkMetrics asserts every metric of defs is present, finite and
// carries its unit.
func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly in both modes: no load
// may fail, every metric must be present, and a traced run must compare
// at least one whole pass with loader.Load (all 512 programs on the
// corpus workloads).
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: name, seed: 1, window: 200 * time.Millisecond,
				trace: trace, setups: 1, out: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Loads == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d loads=%d faults=%v",
					name, trace, rep.Correct, rep.Failed, rep.Loads, rep.Faults)
			}
			if rep.PassesChecked == 0 {
				t.Errorf("%s trace=%v: no pass checked", name, trace)
			}
			if !trace {
				checkMetrics(t, rep, endToEnd)
				continue
			}
			checkMetrics(t, rep, perLayer)
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FidelityChecked < len(w.pass) {
				t.Errorf("%s: %d traced loads compared with loader.Load, want at least %d",
					name, rep.FidelityChecked, len(w.pass))
			}
			if fi, err := os.Stat(rep.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no Perfetto trace: %v", name, err)
			}
		}
	}
}

// TestSeedsAgree checks that the seed changes the load order and nothing
// else: every corpus pass reproduces the §6.2 verdict totals.
func TestSeedsAgree(t *testing.T) {
	want := map[string]int{"accept": 403, "reject-weak-condition": 82,
		"reject-insn-limit": 23, "reject-untriggered": 4}
	for _, seed := range []int64{1, 2} {
		rep, err := run(runOpts{workload: "corpus-eval", seed: seed, window: 100 * time.Millisecond,
			setups: 1, out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || !reflect.DeepEqual(rep.PassVerdicts, want) {
			t.Errorf("seed %d: correct=%v verdicts %v, want %v (faults %v)",
				seed, rep.Correct, rep.PassVerdicts, want, rep.Faults)
		}
	}
	if p1, p2 := permutation(1, 1, 0, 512), permutation(2, 1, 0, 512); reflect.DeepEqual(p1, p2) {
		t.Error("seeds 1 and 2 give the same load order")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompareFlagsBreach(t *testing.T) {
	write := func(dir string, seed int64, perS float64) {
		rep := report{Workload: "corpus-eval", Mode: "e2e", Seed: seed, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
		}
		rep.Metrics["loads_per_s"] = metricValue{Value: perS, Unit: "1/s"}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", rep.Workload, seed)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"corpus-eval"}],
		"end_to_end":[{"name":"loads_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	for seed, v := range []float64{100, 102, 98} {
		write(a, int64(seed), v)
		write(same, int64(seed), v*0.95)
		write(slow, int64(seed), v*0.8)
	}
	var out strings.Builder
	if ok, err := compareSets(&out, spec, a, same); err != nil || !ok {
		t.Errorf("5%% slower within a 10%% bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareSets(&out, spec, a, slow); err != nil || ok {
		t.Errorf("20%% slower passed a 10%% bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
