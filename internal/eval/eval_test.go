package eval

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"bcf/internal/bcferr"
	"bcf/internal/corpus"
)

// runSmall runs the evaluation over a truncated dataset view by running
// the real harness (the corpus is fixed; we just verify plumbing and
// rendering, not re-verify 512 programs in unit tests — corpus tests do
// that).
func TestTables12RenderWithoutRun(t *testing.T) {
	t2 := Table2String()
	for _, want := range []string{"split-access", "helper-size", "reject-weak-condition", "512"} {
		if !strings.Contains(t2, want) {
			t.Errorf("table 2 missing %q:\n%s", want, t2)
		}
	}
	t1 := Table1String("../..")
	for _, want := range []string{"Verifier", "Proof Checker", "Kernel space", "Total"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table 1 missing %q:\n%s", want, t1)
		}
	}
	if strings.Contains(t1, "unavailable") {
		t.Errorf("table 1 could not locate sources:\n%s", t1)
	}
}

func TestTable1CountsArePlausible(t *testing.T) {
	rows, err := Table1("../..")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rows {
		if r.Lines <= 0 || r.Files <= 0 {
			t.Errorf("component %s has no sources", r.Component)
		}
		total += r.Lines
	}
	if total < 5000 {
		t.Errorf("total LoC suspiciously small: %d", total)
	}
}

func TestZoneTableRenders(t *testing.T) {
	s := ZoneTable()
	for _, want := range []string{"Zone-domain", "split-access", "total", "BCF accepts 403"} {
		if !strings.Contains(s, want) {
			t.Errorf("zone table missing %q:\n%s", want, s)
		}
	}
	// The sum-relational families must stay at zero under the zone.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "split-access") && !strings.Contains(line, " 0 ") {
			if !strings.Contains(strings.Fields(line)[1], "0") {
				t.Errorf("split-access should be zone-rejected: %q", line)
			}
		}
	}
}

// TestDurationStringEmpty pins the empty-evaluation rendering: no
// "min 0s" artifacts and no fabricated kernel share from a clamped
// denominator.
func TestDurationStringEmpty(t *testing.T) {
	ev := &Evaluation{}
	s := ev.DurationString()
	if !strings.Contains(s, "no results") {
		t.Errorf("empty evaluation should say so explicitly:\n%s", s)
	}
	for _, banned := range []string{"min 0s", "kernel space: 0.0%"} {
		if strings.Contains(s, banned) {
			t.Errorf("empty evaluation rendered %q:\n%s", banned, s)
		}
	}
}

func TestCacheTableRenders(t *testing.T) {
	ev := &Evaluation{}
	ev.Cache.Hits, ev.Cache.Misses, ev.Cache.Size, ev.Cache.Cap = 3, 1, 1, 4096
	s := ev.CacheTableString()
	for _, want := range []string{"hits", "misses", "hit rate", "75.0%", "evictions"} {
		if !strings.Contains(s, want) {
			t.Errorf("cache table missing %q:\n%s", want, s)
		}
	}
}

// TestParallelMatchesSequential is the determinism contract of the
// worker pool: over the same corpus prefix, a parallel run's structural
// aggregates (acceptance, baseline verdicts, refinement counts, proof
// and condition sizes, Figure 8 buckets) are identical to a sequential
// run's. Only wall-clock timing may differ.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation slice run")
	}
	const limit = 64
	budget := corpus.Size/128 + 2000
	seq := RunOpts(Options{InsnLimit: budget, Parallelism: 1, Limit: limit})
	par := RunOpts(Options{InsnLimit: budget, Parallelism: 4, Limit: limit})

	if len(seq.Results) != limit || len(par.Results) != limit {
		t.Fatalf("result sizes: seq=%d par=%d", len(seq.Results), len(par.Results))
	}
	if !reflect.DeepEqual(seq.Baseline, par.Baseline) {
		t.Error("baseline verdicts differ between sequential and parallel runs")
	}
	if seq.Acceptance() != par.Acceptance() {
		t.Errorf("acceptance differs: seq=%+v par=%+v", seq.Acceptance(), par.Acceptance())
	}
	// The structural part of each request: everything but its timings.
	type request struct {
		insn, track, cond, proof int
		granted                  bool
	}
	requests := func(r ProgramResult) []request {
		var out []request
		for _, q := range r.RefineStats.Requests {
			out = append(out, request{q.Insn, q.TrackLen, q.CondBytes, q.ProofBytes, q.Granted})
		}
		return out
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.Accepted != p.Accepted || s.ErrClass != p.ErrClass ||
			s.RefineStats.Granted != p.RefineStats.Granted || s.RefineStats.Failed != p.RefineStats.Failed ||
			!reflect.DeepEqual(requests(s), requests(p)) {
			t.Errorf("entry %d (%s): structural results diverge", i, s.Entry.Prog.Name)
		}
	}
	sb, sBelow := seq.Figure8()
	pb, pBelow := par.Figure8()
	if !reflect.DeepEqual(sb, pb) || sBelow != pBelow {
		t.Error("Figure 8 distributions differ between sequential and parallel runs")
	}
	if par.Parallelism != 4 || seq.Parallelism != 1 {
		t.Errorf("recorded parallelism seq=%d par=%d", seq.Parallelism, par.Parallelism)
	}
	if par.Cache.Hits+par.Cache.Misses == 0 {
		t.Error("parallel run recorded no proof-cache traffic")
	}
}

// TestProgressSerialized checks the progress callback contract under a
// parallel run: calls never overlap (the callback is unsynchronized user
// code) and done increases monotonically to the total.
func TestProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation slice run")
	}
	last := 0
	const limit = 16
	ev := RunOpts(Options{
		InsnLimit:   2000,
		Parallelism: 4,
		Limit:       limit,
		Progress: func(done, total int) {
			if done != last+1 {
				t.Errorf("progress done=%d after %d (not monotonic)", done, last)
			}
			if total != limit {
				t.Errorf("progress total=%d, want %d", total, limit)
			}
			last = done
		},
	})
	if last != limit {
		t.Errorf("progress ended at %d, want %d", last, limit)
	}
	if len(ev.Results) != limit {
		t.Errorf("results=%d", len(ev.Results))
	}
}

func TestEvaluationEndToEndSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	ev := Run(corpus.Size/128+2000, nil) // small budget still works
	if len(ev.Results) != corpus.Size {
		t.Fatalf("evaluated %d programs", len(ev.Results))
	}
	acc := ev.Acceptance()
	if acc.BaselineAccepted != 0 {
		t.Errorf("baseline accepted %d", acc.BaselineAccepted)
	}
	if acc.BCFAccepted < 380 { // small budget may clip a few loop-ish cases
		t.Errorf("BCF accepted only %d", acc.BCFAccepted)
	}
	for _, render := range []string{
		ev.AcceptanceTable(), ev.Table3String(), ev.Figure8String(), ev.DurationString(),
		ev.ClassBreakdownString(),
	} {
		if len(render) == 0 {
			t.Error("empty render")
		}
	}
	bd := ev.ClassBreakdown()
	sum := 0
	for _, n := range bd {
		sum += n
	}
	if sum != corpus.Size {
		t.Errorf("class breakdown covers %d of %d programs", sum, corpus.Size)
	}
	if bd[bcferr.ClassNone] != acc.BCFAccepted {
		t.Errorf("ClassNone count %d != accepted %d", bd[bcferr.ClassNone], acc.BCFAccepted)
	}
	if bd[bcferr.ClassProtocol] != 0 {
		t.Errorf("honest run produced %d protocol-class rejections", bd[bcferr.ClassProtocol])
	}
	if _, below := ev.Figure8(); below < 90 {
		t.Errorf("proof-size distribution off: %.1f%% under 4K", below)
	}
}

// TestAcceptanceUnlabelled evaluates the corpus with every entry's
// expected outcome zeroed, as bcfbench's ELF path builds its entries,
// and checks Acceptance buckets each program by its observed cause into
// the bucket its label names.
func TestAcceptanceUnlabelled(t *testing.T) {
	labelled := corpus.Generate()
	entries := slices.Clone(labelled)
	for i := range entries {
		entries[i].Expect = 0
	}
	ev := RunOpts(Options{Entries: entries, InsnLimit: 4000})
	want := AcceptanceSummary{Total: 512, BCFAccepted: 403, WeakCondition: 82, InsnLimit: 23, Untriggered: 4}
	if got := ev.Acceptance(); got != want {
		t.Errorf("unlabelled buckets %+v, want %+v", got, want)
	}
	for i, r := range ev.Results {
		one := &Evaluation{Results: []ProgramResult{r}, Baseline: ev.Baseline[i : i+1]}
		observed := one.Acceptance()
		one.Results[0].Entry = labelled[i]
		if byLabel := one.Acceptance(); observed != byLabel {
			t.Errorf("%s/%s: observed cause %+v, label %v says %+v",
				labelled[i].Family, labelled[i].Variant, observed, labelled[i].Expect, byLabel)
		}
	}
}
