package eval

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// kernelSideCeiling is the committed non-test line count of each
// kernel-side component of Table 1, the trusted base the paper argues
// stays small. A change that grows a component raises its number here,
// in its own diff, and says why in CHANGES.md; a change that shrinks one
// lowers it.
var kernelSideCeiling = map[string]int{
	"Verifier":              2676,
	"Proof Checker":         1048,
	"Refinement (BCF core)": 729,
	"tnum domain":           222,
}

// TestKernelSideCeiling fails when a kernel-side component exceeds its
// committed line count.
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
		if r.Lines > ceiling {
			t.Errorf("%s: %d non-test lines, over its committed ceiling of %d", r.Component, r.Lines, ceiling)
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
