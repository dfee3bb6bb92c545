// Command benchdiff is the perf-regression gate: it compares a freshly
// measured BENCH_*.json artifact against the committed baseline under a
// per-metric tolerance file and exits non-zero on regression, so CI can
// fail a push that slows the fleet or the ELF frontend down.
//
// Usage:
//
//	benchdiff -baseline BENCH_remote_fleet.json -new new.json \
//	          -rules .github/benchdiff/fleet.json
//
// The rules file is a JSON array of {path, min_ratio, max_ratio,
// optional, note}: path is a dotted selector into the (possibly nested)
// artifact, min_ratio the floor for higher-is-better metrics, max_ratio
// the ceiling for lower-is-better ones, both on the new/baseline ratio.
//
// Exit status: 0 all bounds hold, 1 at least one regression, 2 usage or
// malformed input (including a non-optional metric missing — a gate
// that silently stops measuring is not a gate).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline BENCH_*.json")
	newPath := flag.String("new", "", "freshly measured BENCH_*.json")
	rulesPath := flag.String("rules", "", "JSON tolerance rules (array of {path,min_ratio,max_ratio,optional})")
	quiet := flag.Bool("q", false, "print only failures")
	flag.Parse()
	if *baselinePath == "" || *newPath == "" || *rulesPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -baseline, -new and -rules; see -h")
		os.Exit(2)
	}

	var baseline, newDoc map[string]any
	var rules []Rule
	for _, l := range []struct {
		path string
		into any
	}{
		{*baselinePath, &baseline},
		{*newPath, &newDoc},
		{*rulesPath, &rules},
	} {
		if err := loadJSON(l.path, l.into); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if len(rules) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: rules file declares no rules")
		os.Exit(2)
	}

	verdicts, err := compare(baseline, newDoc, rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	failed := 0
	for _, v := range verdicts {
		switch {
		case v.Failed:
			failed++
			fmt.Printf("FAIL %-40s baseline=%-12g new=%-12g %s", v.Rule.Path, v.Baseline, v.New, v.Reason)
			if v.Rule.Note != "" {
				fmt.Printf(" (%s)", v.Rule.Note)
			}
			fmt.Println()
		case v.Skipped:
			if !*quiet {
				fmt.Printf("SKIP %-40s %s\n", v.Rule.Path, v.Reason)
			}
		default:
			if !*quiet {
				fmt.Printf("ok   %-40s baseline=%-12g new=%-12g ratio=%.3f\n",
					v.Rule.Path, v.Baseline, v.New, v.Ratio)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d metrics regressed\n", failed, len(verdicts))
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("benchdiff: %d metrics within tolerance\n", len(verdicts))
	}
}
