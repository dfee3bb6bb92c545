package main

import (
	"encoding/json"
	"testing"
)

func doc(t *testing.T, s string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLookupDottedPath(t *testing.T) {
	m := doc(t, `{"a": 1.5, "b": {"c": {"d": 2}}, "s": "str"}`)
	if v, ok := lookup(m, "a"); !ok || v != 1.5 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, ok := lookup(m, "b.c.d"); !ok || v != 2 {
		t.Fatalf("b.c.d = %v, %v", v, ok)
	}
	for _, p := range []string{"missing", "b.c.missing", "a.deeper", "s"} {
		if _, ok := lookup(m, p); ok {
			t.Fatalf("lookup(%q) unexpectedly resolved", p)
		}
	}
}

func TestCompareBounds(t *testing.T) {
	base := doc(t, `{"speedup": 2.4, "wall_ms": 100, "nested": {"p99": 10}}`)

	// Within tolerance on every axis.
	ok := doc(t, `{"speedup": 2.3, "wall_ms": 110, "nested": {"p99": 11}}`)
	rules := []Rule{
		{Path: "speedup", MinRatio: 0.85},
		{Path: "wall_ms", MaxRatio: 1.25},
		{Path: "nested.p99", MaxRatio: 1.5},
	}
	vs, err := compare(base, ok, rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Failed || v.Skipped {
			t.Fatalf("%s: failed=%v skipped=%v (%s)", v.Rule.Path, v.Failed, v.Skipped, v.Reason)
		}
	}

	// A speedup collapse trips the floor; a wall-clock blowup the ceiling.
	bad := doc(t, `{"speedup": 1.0, "wall_ms": 300, "nested": {"p99": 9}}`)
	vs, err = compare(base, bad, rules)
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].Failed || !vs[1].Failed || vs[2].Failed {
		t.Fatalf("verdicts = %+v", vs)
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := doc(t, `{"speedup": 2.4}`)
	fresh := doc(t, `{"speedup": 2.4}`)

	// Required metric missing from both: structural error, not a pass.
	if _, err := compare(base, fresh, []Rule{{Path: "wall_ms", MaxRatio: 1.2}}); err == nil {
		t.Fatal("missing required metric did not error")
	}

	// Optional metric missing: skipped, gate still green.
	vs, err := compare(base, fresh, []Rule{
		{Path: "speedup", MinRatio: 0.9},
		{Path: "fleet.latency_p99_ms", MaxRatio: 1.5, Optional: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Failed || !vs[1].Skipped || vs[1].Failed {
		t.Fatalf("verdicts = %+v", vs)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := doc(t, `{"failovers": 0, "hedges": 0}`)

	// 0 -> 0 holds; 0 -> nonzero under a ceiling is a regression.
	vs, err := compare(base, doc(t, `{"failovers": 0, "hedges": 4}`), []Rule{
		{Path: "failovers", MaxRatio: 1.0},
		{Path: "hedges", MaxRatio: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].Skipped || vs[0].Failed {
		t.Fatalf("0->0 verdict = %+v", vs[0])
	}
	if !vs[1].Failed {
		t.Fatalf("0->4 verdict = %+v", vs[1])
	}
}

// TestCompareCommittedArtifacts runs the real rules files against the
// real committed baselines compared to themselves: the self-ratio is
// 1.0 everywhere, so the gate must be green. Guards against a rules
// file referencing a path the artifact does not have.
func TestCompareCommittedArtifacts(t *testing.T) {
	cases := []struct{ artifact, rules string }{
		{"../../BENCH_remote_fleet.json", "../../.github/benchdiff/fleet.json"},
	}
	for _, c := range cases {
		var base map[string]any
		var rules []Rule
		if err := loadJSON(c.artifact, &base); err != nil {
			t.Fatal(err)
		}
		if err := loadJSON(c.rules, &rules); err != nil {
			t.Fatal(err)
		}
		if len(rules) == 0 {
			t.Fatalf("%s: empty rules", c.rules)
		}
		vs, err := compare(base, base, rules)
		if err != nil {
			t.Fatalf("%s vs itself: %v", c.artifact, err)
		}
		for _, v := range vs {
			if v.Failed {
				t.Errorf("%s: self-comparison failed on %s: %s", c.artifact, v.Rule.Path, v.Reason)
			}
		}
	}
}
