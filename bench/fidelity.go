package main

import (
	"bytes"
	"fmt"

	"bcf/internal/loader"
)

// recordConds is a loader.FaultHook that changes nothing and records the
// condition bytes of every round.
type recordConds struct{ conds [][]byte }

func (r *recordConds) Condition(_ int, b []byte) []byte {
	r.conds = append(r.conds, append([]byte(nil), b...))
	return b
}
func (r *recordConds) Prove(int) error                      { return nil }
func (r *recordConds) Proof(_ int, b []byte) ([]byte, bool) { return b, false }

// reference is what loader.Load did with one program: its result and the
// condition bytes of every round.
type reference struct {
	res   *loader.Result
	conds [][]byte
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diverges says how a traced load differs from loader.Load on the same
// program, or "" when it does not: verdict, error text, the verifier's
// InsnProcessed, Refinements and RefineAttempts, and the condition bytes
// of every round. The traced run checks every load with it, so the
// ledger cannot quietly measure a different program than loader.Load.
func diverges(name string, want reference, got tracedLoad) string {
	ws, gs := want.res.VerifierStats, got.stats
	switch {
	case got.accepted != want.res.Accepted || errText(got.err) != errText(want.res.Err):
		return fmt.Sprintf("%s: traced verdict %v %q, loader %v %q",
			name, got.accepted, errText(got.err), want.res.Accepted, errText(want.res.Err))
	case gs.InsnProcessed != ws.InsnProcessed || gs.Refinements != ws.Refinements ||
		gs.RefineAttempts != ws.RefineAttempts:
		return fmt.Sprintf("%s: traced insns/refinements/attempts %d/%d/%d, loader %d/%d/%d", name,
			gs.InsnProcessed, gs.Refinements, gs.RefineAttempts, ws.InsnProcessed, ws.Refinements, ws.RefineAttempts)
	case len(got.rounds) != len(want.conds):
		return fmt.Sprintf("%s: traced %d rounds, loader %d", name, len(got.rounds), len(want.conds))
	}
	for i, rd := range got.rounds {
		if !bytes.Equal(rd.cond, want.conds[i]) {
			return fmt.Sprintf("%s: round %d condition bytes differ from loader.Load", name, i)
		}
	}
	return ""
}
