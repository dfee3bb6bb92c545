package verifier

import (
	"sync"
	"sync/atomic"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// maxExploredPerInsn caps the explored-state list per instruction; beyond
// it we stop recording (still analyzing, just without pruning benefit),
// bounding memory like the kernel's state-list heuristics.
const maxExploredPerInsn = 64

// exploredEntry is one recorded state plus the DFS-order coordinate of
// the walk that recorded it; the coordinate restricts pruning visibility
// (see visibleTo). dead is set when a later path-conditional refinement
// retracts the entry (retractEntries): its "explored without error"
// claim then holds only under branch constraints a pruned state need not
// share.
type exploredEntry struct {
	st    *VState
	order *pathOrder
	dead  *atomic.Bool
}

// exploredShard holds the explored states of a single pc behind its own
// lock, so concurrent subsumption checks at different instructions never
// serialize the run.
type exploredShard struct {
	mu      sync.Mutex
	entries []exploredEntry
}

// computePrunePoints marks every jump target and post-branch
// instruction, the positions where explored states are recorded.
func computePrunePoints(prog *ebpf.Program) []bool {
	points := make([]bool, len(prog.Insns))
	for i, ins := range prog.Insns {
		if !ins.IsJump() {
			continue
		}
		op := ins.JmpOp()
		if op == ebpf.JmpCALL || op == ebpf.JmpEXIT {
			continue
		}
		tgt := i + 1 + int(ins.Off)
		if tgt >= 0 && tgt < len(prog.Insns) {
			points[tgt] = true
		}
		if op != ebpf.JmpJA && i+1 < len(prog.Insns) {
			points[i+1] = true
		}
	}
	return points
}

// pruned reports whether an already-explored state at pc subsumes st; if
// not, st is recorded for future pruning and the entry's liveness flag
// is returned for retraction bookkeeping. An entry prunes only a walk it
// is visible to (visibleTo), which keeps verdicts and reported errors
// those of the sequential DFS. Subsumption is checked first: it is the
// cheaper test and rejects most entries. The dead flag is read last,
// once visibility guarantees every retraction the sequential DFS would
// have seen has landed.
func (v *Verifier) pruned(pc int, st *VState, order *pathOrder) (bool, *atomic.Bool) {
	sh := &v.explored[pc]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range sh.entries {
		e := &sh.entries[i]
		if statesSubsume(e.st, st) && visibleTo(e.order, order) && !e.dead.Load() {
			return true, nil
		}
	}
	if len(sh.entries) >= maxExploredPerInsn {
		return false, nil
	}
	dead := new(atomic.Bool)
	sh.entries = append(sh.entries, exploredEntry{st: st.clone(), order: order, dead: dead})
	return false, dead
}

// idMap tracks the correspondence of register identities between an old
// (explored) and a new state, so that linkage assumptions in the old
// state are only relied on when the new state has them too.
type idMap map[uint32]uint32

func (m idMap) match(oldID, newID uint32) bool {
	if oldID == 0 {
		return true // old state assumed no linkage: always safe
	}
	if newID == 0 {
		return false // old relied on linkage the new state lacks
	}
	if cur, ok := m[oldID]; ok {
		return cur == newID
	}
	m[oldID] = newID
	return true
}

// statesSubsume reports whether every concrete state admitted by `new`
// was admitted by `old` (states_equal with range liveness, conservative).
func statesSubsume(old, new *VState) bool {
	// The old exploration's subtree may contain packet accesses proven
	// safe only up to old.PktRange; a new state with a smaller proven
	// range would not survive them (kernel: rold->range > rcur->range is
	// not safe).
	if old.PktRange > new.PktRange {
		return false
	}
	ids := idMap{}
	for i := range old.Regs {
		if !regSubsumes(&old.Regs[i], &new.Regs[i], ids) {
			return false
		}
	}
	// Slot-wise over the full frame. A slot past old's depth is
	// SlotInvalid under old, which subsumes anything, so the walk stops
	// at old's depth; a slot past new's depth is SlotInvalid under new.
	var invalid StackSlot
	for j := range old.Stack {
		nw := &invalid
		if j < len(new.Stack) {
			nw = &new.Stack[j]
		}
		if !slotSubsumes(&old.Stack[j], nw, ids) {
			return false
		}
	}
	return true
}

// regSubsumes reports whether old's abstraction covers new's (regsafe).
func regSubsumes(old, new *RegState, ids idMap) bool {
	if old.Type == NotInit {
		// Old exploration never read this register (it would have been
		// rejected), so its contents are irrelevant.
		return true
	}
	if !ids.match(old.ID, new.ID) {
		return false
	}
	switch old.Type {
	case Scalar:
		if new.Type != Scalar {
			return false
		}
		return rangeSubsumes(old, new)
	case PtrToStack, PtrToCtx, PtrToMapValue, PtrToMapValueOrNull, ConstPtrToMap,
		PtrToPacket, PtrToPacketEnd:
		if new.Type != old.Type || new.Off != old.Off || new.MapIdx != old.MapIdx {
			return false
		}
		return rangeSubsumes(old, new)
	}
	return false
}

// rangeSubsumes checks containment across all five domains.
func rangeSubsumes(old, new *RegState) bool {
	return old.UMin <= new.UMin && old.UMax >= new.UMax &&
		old.SMin <= new.SMin && old.SMax >= new.SMax &&
		old.U32Min <= new.U32Min && old.U32Max >= new.U32Max &&
		old.S32Min <= new.S32Min && old.S32Max >= new.S32Max &&
		tnum.In(old.Var, new.Var)
}

// slotSubsumes checks stack slot compatibility (stacksafe).
func slotSubsumes(old, new *StackSlot, ids idMap) bool {
	switch old.Kind {
	case SlotInvalid, SlotMisc:
		// Invalid: never read under old (reads rejected), so contents are
		// irrelevant. Misc: old treated contents as arbitrary bytes.
		return true
	case SlotZero:
		if new.Kind == SlotZero {
			return true
		}
		return new.Kind == SlotSpill && new.Spill.Type == Scalar &&
			new.Spill.IsConst() && new.Spill.ConstVal() == 0
	case SlotSpill:
		return new.Kind == SlotSpill && regSubsumes(&old.Spill, &new.Spill, ids)
	}
	return false
}
