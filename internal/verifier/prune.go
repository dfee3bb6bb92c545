package verifier

import (
	"math"
	"math/bits"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// maxExploredPerInsn caps a pc's explored-state list; beyond it we stop
// recording (still analyzing, just without pruning benefit), like the
// kernel's BPF_COMPLEXITY_LIMIT_STATES.
const maxExploredPerInsn = 64

// exploredEntry is one recorded state, named by id (its place in the
// load's record order). dead is set when a later path-conditional
// refinement retracts the entry (retractEntries): its "explored without
// error" claim then holds only under branch constraints a pruned state
// need not share. hits and misses count the arrivals it pruned and
// failed to prune.
type exploredEntry struct {
	st               *VState
	key              pruneKey
	dead             bool
	id, hits, misses int32
}

// pruneKey, a necessary condition of statesSubsume that refutes most
// candidates in one comparison, is a recorded state's constant scalar
// registers (consts; tnum.In admits only that constant) and their values.
type pruneKey struct {
	consts uint16
	sum    uint64
}

// keyOf is st's key at the registers in consts, or a key no entry has
// when one of them is not a constant scalar.
func keyOf(st *VState, consts uint16) pruneKey {
	k := pruneKey{consts: consts}
	for m := consts; m != 0; m &= m - 1 {
		r := &st.Regs[bits.TrailingZeros16(m)]
		if r.Type != Scalar || !r.IsConst() {
			return pruneKey{consts: ^uint16(0)}
		}
		k.sum = (k.sum ^ r.ConstVal()) * 0x100000001b3
	}
	return k
}

// A pc's kind: only prune points search and record explored states. A
// checkpoint, a prune point with a loop invariant, records every arrival:
// pruning against its widened state proves the loop inductive.
const (
	noPoint uint8 = iota
	prunePoint
	checkpoint
)

// computePrunePoints marks every jump target and post-branch
// instruction a prune point, and those with a loop invariant checkpoints.
func computePrunePoints(prog *ebpf.Program, invs []LoopInvariant) []uint8 {
	points := make([]uint8, len(prog.Insns))
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
			points[tgt] = prunePoint
		}
		if op != ebpf.JmpJA && i+1 < len(prog.Insns) {
			points[i+1] = prunePoint
		}
	}
	for _, inv := range invs {
		if inv.Insn >= 0 && inv.Insn < len(points) && points[inv.Insn] == prunePoint {
			points[inv.Insn] = checkpoint
		}
	}
	return points
}

// pruned reports whether a live explored state at pc subsumes st; if not,
// st may be recorded, and its id (else -1) is returned for retraction.
// As the kernel's is_state_visited, it records at a checkpoint or 2
// jumps and 8 insns after the last record, into an evicted entry's state
// when there is one, and evicts an entry from the list (which keeps its
// order) once misses > hits*n + n, n = 3 or 64 at a checkpoint, counting
// misses only when st is to be recorded.
func (v *Verifier) pruned(pc int, st *VState) (bool, int32) {
	forced := v.prunePoints[pc] == checkpoint
	add := forced || v.jmps-v.prevJmps >= 2 && v.stats.InsnProcessed-v.prevInsns >= 8
	n := int32(3)
	if forced {
		n = 64
	}
	entries := v.explored[pc]
	// k is st's key at consts, which the entries of a pc mostly share.
	k, consts := pruneKey{}, ^uint16(0)
	w := 0 // entries[:w] are the entries kept so far
	for i := range entries {
		e := &entries[i]
		if e.key.consts != consts {
			consts, k = e.key.consts, keyOf(st, e.key.consts)
		}
		if k == e.key && !e.dead && statesSubsume(e.st, st, &v.ids) {
			e.hits++
			v.explored[pc] = append(entries[:w], entries[i:]...)
			return true, -1
		}
		if add {
			e.misses++
		}
		if e.misses > e.hits*n+n {
			v.free = append(v.free, e.st)
			continue
		}
		entries[w] = *e
		w++
	}
	v.explored[pc] = entries[:w]
	if !add || w >= maxExploredPerInsn {
		return false, -1
	}
	var c *VState
	if f := len(v.free); f > 0 {
		c, v.free = v.free[f-1], v.free[:f-1]
	}
	consts = 0
	for i := range st.Regs {
		if st.Regs[i].Type == Scalar && st.Regs[i].IsConst() {
			consts |= 1 << i
		}
	}
	// Ids wrap past MaxInt32 records; a shared id only over-retracts.
	id := int32(v.stats.StatesRecorded & math.MaxInt32)
	v.stats.StatesRecorded++
	v.prevJmps, v.prevInsns = v.jmps, v.stats.InsnProcessed
	v.explored[pc] = append(entries[:w], exploredEntry{st: st.clone(c), key: keyOf(st, consts), id: id})
	return false, id
}

// idMap pairs the register identities of an old (explored) state with
// those of a new state, so that linkage assumptions in the old state are
// only relied on when the new state has them too. It is the kernel's
// env->idmap_scratch: a fixed array reused across statesSubsume calls,
// which reset n and never zero it. Every register and spilled slot adds
// at most one pair, so it cannot overflow.
type idMap struct {
	pairs [ebpf.MaxReg + NumStackSlots][2]uint32
	n     int
}

func (m *idMap) match(oldID, newID uint32) bool {
	if oldID == 0 {
		return true // old state assumed no linkage: always safe
	}
	if newID == 0 {
		return false // old relied on linkage the new state lacks
	}
	for _, p := range m.pairs[:m.n] {
		if p[0] == oldID {
			return p[1] == newID
		}
	}
	m.pairs[m.n] = [2]uint32{oldID, newID}
	m.n++
	return true
}

// statesSubsume reports whether every concrete state admitted by `new`
// was admitted by `old` (states_equal with range liveness, conservative).
// ids is scratch space.
func statesSubsume(old, new *VState, ids *idMap) bool {
	// The old exploration's subtree may contain packet accesses proven
	// safe only up to old.PktRange; a new state with a smaller proven
	// range would not survive them (kernel: rold->range > rcur->range is
	// not safe).
	if old.PktRange > new.PktRange {
		return false
	}
	ids.n = 0
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
func regSubsumes(old, new *RegState, ids *idMap) bool {
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
func slotSubsumes(old, new *StackSlot, ids *idMap) bool {
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
