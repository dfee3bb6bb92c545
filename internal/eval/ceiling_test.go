package eval

import "testing"

// kernelSideCeiling is the committed non-test line count of each
// kernel-side component of Table 1, the trusted base the paper argues
// stays small. A change that grows a component raises its number here,
// in its own diff, and says why in CHANGES.md; a change that shrinks one
// lowers it.
var kernelSideCeiling = map[string]int{
	"Verifier":              3110,
	"Proof Checker":         1084,
	"Refinement (BCF core)": 870,
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
