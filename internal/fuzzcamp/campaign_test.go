package fuzzcamp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcf/internal/verifier"
)

// normalize strips the wall-clock-dependent fields, the only ones the
// determinism contract exempts.
func normalize(s *Stats) Stats {
	n := *s
	n.Workers = 0
	n.DurationSec = 0
	n.ExecsPerSec = 0
	return n
}

func runCampaign(t *testing.T, opt Options) *Stats {
	t.Helper()
	c := New(opt)
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func statsEqual(a, b Stats) bool {
	if a.Seed != b.Seed || a.Rounds != b.Rounds || a.Execs != b.Execs ||
		a.Accepted != b.Accepted || a.CoverageBits != b.CoverageBits ||
		a.CorpusSize != b.CorpusSize || a.FailuresSeen != b.FailuresSeen ||
		a.UniqueFailures != b.UniqueFailures ||
		len(a.CoverageHistory) != len(b.CoverageHistory) ||
		len(a.Failures) != len(b.Failures) {
		return false
	}
	for i := range a.CoverageHistory {
		if a.CoverageHistory[i] != b.CoverageHistory[i] {
			return false
		}
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			return false
		}
	}
	return true
}

// TestCampaignDeterministicAcrossWorkers is the acceptance-criteria
// check: a fixed seed and exec budget produce identical results at
// one and at four workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := Options{Seed: 7, Execs: 96, Batch: 32}

	one := base
	one.Workers = 1
	four := base
	four.Workers = 4

	a := normalize(runCampaign(t, one))
	b := normalize(runCampaign(t, four))
	if !statsEqual(a, b) {
		t.Fatalf("campaign results differ across worker counts:\n 1 worker: %+v\n 4 workers: %+v", a, b)
	}
	if a.Execs != 96 {
		t.Fatalf("execs = %d, want the full 96 budget", a.Execs)
	}
}

// TestCampaignCleanRun pins the healthy-verifier baseline: coverage
// grows monotonically, the corpus absorbs coverage-growing inputs, and
// no oracle reports a violation.
func TestCampaignCleanRun(t *testing.T) {
	stats := runCampaign(t, Options{Seed: 11, Execs: 96, Batch: 32, Workers: 4})
	if stats.UniqueFailures != 0 || stats.FailuresSeen != 0 {
		t.Fatalf("clean run reported failures: %+v", stats.Failures)
	}
	if stats.Accepted == 0 {
		t.Fatal("no generated program accepted; the campaign is vacuous")
	}
	if len(stats.CoverageHistory) != stats.Rounds {
		t.Fatalf("coverage history has %d entries for %d rounds", len(stats.CoverageHistory), stats.Rounds)
	}
	for i := 1; i < len(stats.CoverageHistory); i++ {
		if stats.CoverageHistory[i] < stats.CoverageHistory[i-1] {
			t.Fatalf("coverage shrank: history %v", stats.CoverageHistory)
		}
	}
	if stats.CoverageBits == 0 || stats.CorpusSize == 0 {
		t.Fatalf("no coverage (%d bits) or empty corpus (%d)", stats.CoverageBits, stats.CorpusSize)
	}
}

// TestCampaignFindsSabotage is the detection drill: with a planted
// verifier bug the campaign must find a violation within the budget,
// minimize it, dedup it to exactly one reproducer, and promote a
// well-formed .bpfasm file.
func TestCampaignFindsSabotage(t *testing.T) {
	for _, tc := range []struct {
		name string
		sab  verifier.Sabotage
	}{
		{"collapse-add", verifier.Sabotage{CollapseAddBounds: true}},
		{"skip-mem-bounds", verifier.Sabotage{SkipMemBounds: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sab := tc.sab
			stats := runCampaign(t, Options{
				Seed:          3,
				Execs:         2048,
				Batch:         32,
				Workers:       4,
				StopOnFailure: true,
				PromoteDir:    dir,
				Exec:          ExecOptions{Sabotage: &sab},
			})
			if stats.UniqueFailures != 1 {
				t.Fatalf("unique failures = %d, want exactly 1 (stop-on-failure): %+v",
					stats.UniqueFailures, stats.Failures)
			}
			f := stats.Failures[0]
			if f.Insns == 0 {
				t.Fatal("reproducer was not minimized (0 instructions)")
			}
			raw, err := os.ReadFile(f.File)
			if err != nil {
				t.Fatalf("promoted reproducer missing: %v", err)
			}
			text := string(raw)
			if !strings.HasPrefix(text, ";; prog name=fuzz-") {
				t.Fatalf("reproducer does not start with a prog directive:\n%s", text)
			}
			if !strings.Contains(text, "expect=") {
				t.Fatal("reproducer lacks an expect= directive")
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*.bpfasm"))
			if len(files) != 1 {
				t.Fatalf("promoted %d reproducer files, want exactly 1: %v", len(files), files)
			}
		})
	}
}

// TestCampaignSabotageDeterministic pins that even the failing path —
// minimization, dedup key, reproducer metadata — is identical across
// worker counts.
func TestCampaignSabotageDeterministic(t *testing.T) {
	run := func(workers int) Stats {
		sab := verifier.Sabotage{CollapseAddBounds: true}
		return normalize(runCampaign(t, Options{
			Seed: 3, Execs: 2048, Batch: 32, Workers: workers,
			StopOnFailure: true,
			Exec:          ExecOptions{Sabotage: &sab},
		}))
	}
	a, b := run(1), run(4)
	if !statsEqual(a, b) {
		t.Fatalf("sabotage campaign differs across worker counts:\n 1: %+v\n 4: %+v", a, b)
	}
	if a.UniqueFailures != 1 {
		t.Fatalf("unique failures = %d, want 1", a.UniqueFailures)
	}
}

// TestCampaignPromoteError: a reproducer that cannot be written must not
// vanish. Run still returns the campaign's Stats, and its error names
// the promotion path that failed.
func TestCampaignPromoteError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	promote := filepath.Join(file, "sub")
	sab := verifier.Sabotage{CollapseAddBounds: true}
	stats, err := New(Options{
		Seed: 3, Execs: 2048, Batch: 32, Workers: 4,
		StopOnFailure: true,
		PromoteDir:    promote,
		Exec:          ExecOptions{Sabotage: &sab},
	}).Run(context.Background())
	if err == nil {
		t.Fatal("Run returned no error for an unwritable PromoteDir")
	}
	var pathErr *os.PathError
	if !errors.As(err, &pathErr) || !strings.Contains(err.Error(), promote) {
		t.Fatalf("err = %v, want a path error naming %s", err, promote)
	}
	if stats == nil || stats.UniqueFailures != 1 {
		t.Fatalf("stats = %+v, want the campaign outcome with its one failure", stats)
	}
	if stats.Failures[0].File != "" {
		t.Fatalf("failure reports file %q that was never written", stats.Failures[0].File)
	}
}
