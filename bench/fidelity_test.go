package main

import (
	"errors"
	"strings"
	"testing"

	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// TestFidelity checks that the per-load comparison every traced run
// makes catches each kind of divergence from loader.Load. That every
// corpus program passes it is checked by the traced smoke runs, which
// compare a whole pass.
func TestFidelity(t *testing.T) {
	want := reference{
		res: &loader.Result{Err: errors.New("rejected"),
			VerifierStats: verifier.Stats{InsnProcessed: 40, Refinements: 1, RefineAttempts: 2}},
		conds: [][]byte{{1, 2}, {3}},
	}
	same := tracedLoad{err: errors.New("rejected"), stats: want.res.VerifierStats,
		rounds: []round{{cond: []byte{1, 2}}, {cond: []byte{3}}}}
	if msg := diverges("p", want, same); msg != "" {
		t.Fatalf("identical load flagged: %s", msg)
	}
	for _, c := range []struct {
		name   string
		mutate func(*tracedLoad)
		says   string
	}{
		{"verdict", func(l *tracedLoad) { l.accepted, l.err = true, nil }, "verdict"},
		{"error text", func(l *tracedLoad) { l.err = errors.New("other") }, "verdict"},
		{"insns", func(l *tracedLoad) { l.stats.InsnProcessed++ }, "insns"},
		{"refinements", func(l *tracedLoad) { l.stats.Refinements-- }, "insns"},
		{"attempts", func(l *tracedLoad) { l.stats.RefineAttempts++ }, "insns"},
		{"round count", func(l *tracedLoad) { l.rounds = l.rounds[:1] }, "rounds"},
		{"condition bytes", func(l *tracedLoad) { l.rounds[1].cond = []byte{4} }, "condition bytes"},
	} {
		got := same
		got.rounds = append([]round(nil), same.rounds...)
		c.mutate(&got)
		if msg := diverges("p", want, got); !strings.Contains(msg, c.says) {
			t.Errorf("%s: diverges = %q, want it to mention %q", c.name, msg, c.says)
		}
	}
}
