package eval

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// kernelSideCeiling is the committed non-test line count of each
// kernel-side component of Table 1, the trusted base the paper argues
// stays small. A change that grows a component raises its number here,
// in its own diff, and says why in CHANGES.md; a change that shrinks one
// lowers it in the same diff.
var kernelSideCeiling = map[string]int{
	"Verifier":              2674,
	"Proof Checker":         995,
	"Refinement (BCF core)": 729,
	"tnum domain":           193,
}

// TestKernelSideCeiling fails when a kernel-side component's line count
// differs from its committed one, so the count never lags a shrink.
func TestKernelSideCeiling(t *testing.T) {
	rows, err := Table1("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range rows {
		ceiling, ok := kernelSideCeiling[r.Component]
		if !ok {
			continue
		}
		seen++
		if r.Lines != ceiling {
			t.Errorf("%s: %d non-test lines, its committed ceiling is %d", r.Component, r.Lines, ceiling)
		}
	}
	if seen != len(kernelSideCeiling) {
		t.Errorf("Table 1 reports %d of the %d kernel-side components", seen, len(kernelSideCeiling))
	}
}

// kernelSideDirs are the packages of the kernel-side Table 1 components.
var kernelSideDirs = []string{"internal/verifier", "internal/proof", "internal/bcf", "internal/tnum"}

// TestKernelSideImports keeps telemetry out of the trusted base: no
// kernel-side package may import internal/obs. The kernel side keeps a
// record of each load, and the loader derives metrics, spans and journal
// entries from it.
func TestKernelSideImports(t *testing.T) {
	const banned = "bcf/internal/obs"
	fset := token.NewFileSet()
	for _, dir := range kernelSideDirs {
		entries, err := os.ReadDir(filepath.Join("../..", dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join("../..", dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == banned {
					t.Errorf("%s/%s imports %s", dir, name, banned)
				}
			}
		}
	}
}

// TestExperimentsTable1 fails when the Table 1 rows of EXPERIMENTS.md
// (component, location, files and lines, and the total) differ from
// Table1, so a change that moves a component's size updates the
// document in the same diff.
func TestExperimentsTable1(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Table 1:")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Table 1 section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || strings.HasPrefix(cells[1], "---") || strings.TrimSpace(cells[1]) == "component" {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		got = append(got, strings.ReplaceAll(strings.Join(cells[1:5], "|"), ",", ""))
	}
	rows, err := Table1("../..")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	total := 0
	for _, r := range rows {
		want = append(want, fmt.Sprintf("%s|%s|%d|%d", r.Component, strings.ToLower(r.Location), r.Files, r.Lines))
		total += r.Lines
	}
	want = append(want, fmt.Sprintf("Total|||%d", total))
	if !slices.Equal(got, want) {
		t.Errorf("EXPERIMENTS.md Table 1 rows\n%s\nwant (cmd/bcfbench -table 1)\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
