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

	"bcf/internal/corpus"
	"bcf/internal/zone"
)

// kernelSideCeiling is the committed non-test line count of each
// kernel-side component of Table 1, the trusted base the paper argues
// stays small. A change that grows a component raises its number here,
// in its own diff, and says why in CHANGES.md; a change that shrinks one
// lowers it in the same diff.
var kernelSideCeiling = map[string]int{
	"Verifier":              2735,
	"Proof Checker":         995,
	"Refinement (BCF core)": 759,
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

// commas renders n with thousands separators, as EXPERIMENTS.md does.
func commas(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// TestExperimentsDeterministicRows evaluates the corpus once and fails
// when a deterministic figure of EXPERIMENTS.md differs from the code at
// the document's rounding: the §6.2 buckets, the zone row, Table 3's
// frequency, track-length, condition-size and proof-size rows, Figure
// 8's one-page share and the §6.3 counts. Timing rows stay out: they
// move from run to run.
func TestExperimentsDeterministicRows(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.ReplaceAll(string(raw), "**", "")
	// measured returns the last cell of the table row labelled label.
	measured := func(label string) string {
		for _, line := range strings.Split(doc, "\n") {
			cells := strings.Split(line, "|")
			if len(cells) >= 4 && strings.TrimSpace(cells[1]) == label {
				return strings.TrimSpace(cells[len(cells)-2])
			}
		}
		t.Fatalf("EXPERIMENTS.md has no row %q", label)
		return ""
	}
	check := func(label, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("EXPERIMENTS.md %s: %q, want %q", label, got, want)
		}
	}

	ev := Run(4000, nil) // corpus.InsnLimitForEval, as cmd/bcfbench runs it
	s := ev.Acceptance()
	share := func(n int) string { return fmt.Sprintf("%d (%.1f%%)", n, pct(n, s.Total)) }
	check("baseline accepts", measured("baseline accepts"), fmt.Sprintf("%d / %d", s.BaselineAccepted, s.Total))
	check("BCF accepts", measured("BCF accepts"), share(s.BCFAccepted))
	check("weakened refinement condition", measured("weakened refinement condition"), share(s.WeakCondition))
	check("instruction limit", measured("instruction limit (loops)"), share(s.InsnLimit))
	check("refinement not triggered", measured("refinement not triggered"), share(s.Untriggered))

	zoneAccepted := 0
	for _, e := range corpus.Generate() {
		if zone.Analyze(e.Prog) == nil {
			zoneAccepted++
		}
	}
	zoneRow, _, _ := strings.Cut(measured("zone (PREVAIL analog)"), ",")
	check("zone row", zoneRow, fmt.Sprintf("%d / %d (%.1f%%", zoneAccepted, s.Total, pct(zoneAccepted, s.Total)))

	t3 := ev.Table3()
	for _, row := range []struct{ label, key, avg string }{
		{"refinement frequency", "Refinement Frequency", "%.1f"},
		{"symbolic track length", "Symbolic Track Length", "%.1f"},
		{"condition size (bytes)", "Condition Size (bytes)", "%.0f"},
		{"proof size (bytes)", "Proof Size (bytes)", "%.0f"},
	} {
		d := t3[row.key]
		check("Table 3 "+row.label, measured(row.label),
			commas(d.Min)+" / "+fmt.Sprintf(row.avg, d.Avg)+" / "+commas(d.Max))
	}

	_, below := ev.Figure8()
	check("Figure 8 one-page share", measured("proofs < 4,096 B (one page)"), fmt.Sprintf("%.1f%%", below))

	var refs, insns, shipped int64
	for _, r := range ev.Results {
		refs += int64(r.RefineStats.Granted + r.RefineStats.Failed)
		insns += int64(r.VerifierStats.InsnProcessed)
		shipped += int64(len(r.RefineStats.Requests))
	}
	prose := strings.Join(strings.Fields(doc), " ")
	for _, want := range []string{
		fmt.Sprintf("refinement count (%s over %s analyzed instructions, %.1f%%)",
			commas(refs), commas(insns), 100*float64(refs)/float64(insns)),
		fmt.Sprintf("shipped to user space (%d)", shipped),
	} {
		if !strings.Contains(prose, want) {
			t.Errorf("EXPERIMENTS.md §6.3 does not say %q", want)
		}
	}
}
