package fuzzcamp

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestCorpusStateRoundTrip is the golden persistence check: a reloaded
// corpus reproduces the saved coverage bitmap bit-for-bit, along with
// the corpus programs and campaign counters.
func TestCorpusStateRoundTrip(t *testing.T) {
	dir := t.TempDir()

	a := New(Options{Seed: 5, Rounds: 4, Batch: 16, Workers: 2})
	if _, err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.cov.Count() == 0 || len(a.corpus) == 0 {
		t.Fatalf("campaign produced no state to save: cov=%d corpus=%d", a.cov.Count(), len(a.corpus))
	}
	if err := a.SaveState(dir); err != nil {
		t.Fatal(err)
	}

	b := New(Options{Seed: 5, Rounds: 4, Batch: 16})
	loaded, err := b.LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("LoadState found no state file after SaveState")
	}
	if b.cov != a.cov {
		t.Fatalf("reloaded coverage bitmap differs from saved: %d bits vs %d", b.cov.Count(), a.cov.Count())
	}
	if b.round != a.round || b.execs != a.execs || b.accepted != a.accepted {
		t.Fatalf("counters differ: round %d/%d execs %d/%d accepted %d/%d",
			b.round, a.round, b.execs, a.execs, b.accepted, a.accepted)
	}
	if len(b.covHist) != len(a.covHist) {
		t.Fatalf("coverage history length %d, want %d", len(b.covHist), len(a.covHist))
	}
	for i := range a.covHist {
		if b.covHist[i] != a.covHist[i] {
			t.Fatalf("coverage history[%d] = %d, want %d", i, b.covHist[i], a.covHist[i])
		}
	}
	if len(b.corpus) != len(a.corpus) {
		t.Fatalf("corpus size %d, want %d", len(b.corpus), len(a.corpus))
	}
	for i := range a.corpus {
		got, want := b.corpus[i].prog, a.corpus[i].prog
		if got.Name != want.Name || progHash(got) != progHash(want) {
			t.Fatalf("corpus entry %d differs after reload: %q/%s, want %q/%s",
				i, got.Name, progHash(got), want.Name, progHash(want))
		}
	}
}

// TestCorpusStateResumeEquivalence pins the resume contract: a campaign
// saved at round N and resumed for M more rounds ends in exactly the
// state of one uninterrupted N+M-round campaign — same bitmap, same
// corpus, same stats.
func TestCorpusStateResumeEquivalence(t *testing.T) {
	straight := New(Options{Seed: 9, Rounds: 6, Batch: 16, Workers: 2})
	wantStats, err := straight.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first := New(Options{Seed: 9, Rounds: 3, Batch: 16, Workers: 2})
	if _, err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := first.SaveState(dir); err != nil {
		t.Fatal(err)
	}

	resumed := New(Options{Seed: 9, Rounds: 3, Batch: 16, Workers: 2})
	if loaded, err := resumed.LoadState(dir); err != nil || !loaded {
		t.Fatalf("LoadState = %v, %v", loaded, err)
	}
	gotStats, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if resumed.cov != straight.cov {
		t.Fatalf("resumed coverage bitmap differs from uninterrupted run: %d bits vs %d",
			resumed.cov.Count(), straight.cov.Count())
	}
	got, want := normalize(gotStats), normalize(wantStats)
	if !statsEqual(got, want) {
		t.Fatalf("resumed campaign diverged from uninterrupted run:\n resumed: %+v\n straight: %+v", got, want)
	}
	if got.Rounds != 6 {
		t.Fatalf("resumed campaign reports %d rounds, want 6", got.Rounds)
	}
}

// TestLoadStateMissing: a cold start (no state file) is not an error.
func TestLoadStateMissing(t *testing.T) {
	c := New(Options{Seed: 1})
	loaded, err := c.LoadState(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if loaded {
		t.Fatal("LoadState reported success on an empty directory")
	}
}

// TestLoadStateCorrupt: truncations and header corruption must be
// rejected loudly, never absorbed into a half-loaded campaign.
func TestLoadStateCorrupt(t *testing.T) {
	dir := t.TempDir()
	a := New(Options{Seed: 5, Rounds: 2, Batch: 16, Workers: 2})
	if _, err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, corpusStateFile))
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			d := t.TempDir()
			bad := f(append([]byte(nil), good...))
			if err := os.WriteFile(filepath.Join(d, corpusStateFile), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			c := New(Options{Seed: 5})
			if _, err := c.LoadState(d); err == nil {
				t.Fatal("LoadState accepted a corrupt state file")
			}
		})
	}
	mutate("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("bad-version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("truncated-header", func(b []byte) []byte { return b[:10] })
	mutate("truncated-bitmap", func(b []byte) []byte { return b[:30+BitmapWireLen/2] })
	mutate("truncated-corpus", func(b []byte) []byte { return b[:len(b)-5] })
	mutate("trailing-bytes", func(b []byte) []byte { return append(b, 0) })
}
