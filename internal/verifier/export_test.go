package verifier

import "bcf/internal/ebpf"

// PruneEntry is a state as the pruning table records it, for tests that
// replay the table's comparisons.
type PruneEntry exploredEntry

// RecordPruneEntry records st as pruned does on a pc with no entries, a
// forced checkpoint so that it records at once.
func RecordPruneEntry(st *VState) *PruneEntry {
	v := &Verifier{explored: make([][]exploredEntry, 1), prunePoints: []uint8{checkpoint}}
	v.pruned(0, st)
	return (*PruneEntry)(&v.explored[0][0])
}

// Compare reports whether the entry subsumes st and whether its key
// admits st.
func (e *PruneEntry) Compare(st *VState) (subsumes, admitted bool) {
	var ids idMap
	return statesSubsume(e.st, st, &ids), keyOf(st, e.key.consts) == e.key
}

// PrunePoints reports the pcs of p where the walk records states.
func PrunePoints(p *ebpf.Program) []bool {
	var points []bool
	for _, k := range computePrunePoints(p, nil) {
		points = append(points, k != noPoint)
	}
	return points
}

// The test programs and refiner that the debug log golden shares with
// the internal tests.
var (
	MapProg         = mapProg
	TestMap16       = testMap16
	RefinePruneProg = refinePruneProg
)

const (
	LookupPrologue = lookupPrologue
	LookupEpilogue = lookupEpilogue
	LoopProgSrc    = loopProgSrc
)

// NewAnchorRefiner returns a refiner that proves its first request's
// path infeasible, its track reaching back to the path's start, and
// fails every later request.
func NewAnchorRefiner() Refiner { return &anchorRefiner{anchor: Path.Len} }
