package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Rule bounds one metric of a BENCH_*.json artifact. The comparator
// computes ratio = new/baseline for the dotted Path and fails the gate
// when the ratio leaves the declared band:
//
//   - MinRatio guards higher-is-better metrics (speedup, cache hit
//     rate): ratio < MinRatio is a regression.
//   - MaxRatio guards lower-is-better metrics (wall clock, p99):
//     ratio > MaxRatio is a regression.
//
// Either bound may be omitted (zero = unchecked). Optional rules skip
// silently when the path is absent from either file — for metrics that
// only exist in some configurations (fleet percentiles without
// -remote) — while a missing path on a required rule is a hard error:
// a gate that silently stops measuring is worse than a red one.
type Rule struct {
	Path     string  `json:"path"`
	MinRatio float64 `json:"min_ratio,omitempty"`
	MaxRatio float64 `json:"max_ratio,omitempty"`
	Optional bool    `json:"optional,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// Verdict is the outcome of one rule.
type Verdict struct {
	Rule     Rule
	Baseline float64
	New      float64
	Ratio    float64
	Skipped  bool
	Failed   bool
	Reason   string
}

// lookup resolves a dotted path ("fleet.failovers")
// through nested JSON objects to a numeric leaf.
func lookup(doc map[string]any, dotted string) (float64, bool) {
	cur := any(doc)
	for _, seg := range strings.Split(dotted, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur, ok = m[seg]
		if !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// compare evaluates every rule against the two artifacts. The returned
// error covers structural problems (a required path missing); metric
// regressions are reported per-verdict so the caller can print them all
// before failing.
func compare(baseline, newDoc map[string]any, rules []Rule) ([]Verdict, error) {
	verdicts := make([]Verdict, 0, len(rules))
	for _, r := range rules {
		v := Verdict{Rule: r}
		b, bok := lookup(baseline, r.Path)
		n, nok := lookup(newDoc, r.Path)
		switch {
		case !bok || !nok:
			if !r.Optional {
				side := "baseline"
				if bok {
					side = "new"
				}
				return verdicts, fmt.Errorf("metric %q missing from %s artifact", r.Path, side)
			}
			v.Skipped = true
			v.Reason = "metric absent (optional)"
		case b == 0:
			// No ratio exists against a zero baseline; only an exact hold
			// is checkable.
			v.Baseline, v.New = b, n
			if n != 0 && r.MaxRatio > 0 {
				v.Failed = true
				v.Reason = fmt.Sprintf("baseline is 0 but new is %g", n)
			} else {
				v.Skipped = true
				v.Reason = "zero baseline"
			}
		default:
			v.Baseline, v.New = b, n
			v.Ratio = n / b
			if r.MinRatio > 0 && v.Ratio < r.MinRatio {
				v.Failed = true
				v.Reason = fmt.Sprintf("ratio %.3f below floor %.3f", v.Ratio, r.MinRatio)
			}
			if r.MaxRatio > 0 && v.Ratio > r.MaxRatio {
				v.Failed = true
				v.Reason = fmt.Sprintf("ratio %.3f above ceiling %.3f", v.Ratio, r.MaxRatio)
			}
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, nil
}

// loadJSON reads one artifact or rules file.
func loadJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
