package bcf

import (
	"bytes"
	"errors"

	"bcf/internal/verifier"
)

// MemoKeyAndCondition does for req what a refiner with an empty memo
// does, short of proving: it builds the memo key, tracks the suffix and
// encodes the condition, and returns the key and the condition bytes
// (nil when tracking or encoding fails). A caller that runs it on every
// memo hit can check that the key determines the condition.
func MemoKeyAndCondition(req *verifier.RefineRequest) (key, cond []byte) {
	back := backwardAnalysis(req.Prog, req.Path, req.Reg)
	r := NewRefiner(ProveFunc(func(c []byte) ([]byte, error) {
		cond = bytes.Clone(c)
		return nil, errors.New("not proven: condition captured")
	}))
	r.memoKey(req, back)
	_ = r.prove(req, back, &RequestStats{})
	return r.key, cond
}

// RaceEnabled reports a -race build.
const RaceEnabled = raceEnabled
