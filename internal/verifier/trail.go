package verifier

import (
	"sync"

	"bcf/internal/ebpf"
)

// trail is the undo log of the walk's one live state, Verifier.st. A
// location is a register, a slot of Stack, or the frame: len(Stack) and
// PktRange. An entry holds a location's value before its first write
// under a fork mark (a register's in old.Spill, the frame's in
// old.Spill.UMin and UMax) and its previous stamp, the mark its newest
// entry was logged under, so a register written 96 times between two
// forks is logged once. A load takes a trail from trails at its first
// fork and returns it when Verify does.
type trail struct {
	log    []undo
	stamps [locFrame + 1]uint32
}

type undo struct {
	loc   int32
	stamp uint32
	old   StackSlot
}

const (
	locSlot  = ebpf.MaxReg
	locFrame = locSlot + NumStackSlots
)

var trails = sync.Pool{New: func() any { return new(trail) }}

// save logs location loc before its first write under the newest pending
// branch's mark, its trail position plus one.
func (v *Verifier) save(loc int) {
	n := len(v.stack)
	if n == 0 || v.trail.stamps[loc] == uint32(v.stack[n-1].trail)+1 {
		return
	}
	u := undo{loc: int32(loc), stamp: v.trail.stamps[loc]}
	switch {
	case loc < locSlot:
		u.old.Spill = v.st.Regs[loc]
	case loc < locFrame:
		u.old = v.st.Stack[loc-locSlot]
	default:
		u.old.Spill.UMin, u.old.Spill.UMax = uint64(len(v.st.Stack)), uint64(v.st.PktRange)
	}
	v.trail.log = append(v.trail.log, u)
	v.trail.stamps[loc] = uint32(v.stack[n-1].trail) + 1
}

// undo restores the live state, and the stamps, to trail position n.
func (v *Verifier) undo(n int) {
	t := v.trail
	for i := len(t.log) - 1; i >= n; i-- {
		u := &t.log[i]
		switch loc := int(u.loc); {
		case loc < locSlot:
			v.st.Regs[loc] = u.old.Spill
		case loc < locFrame:
			v.st.Stack[loc-locSlot] = u.old
		default:
			v.st.Stack, v.st.PktRange = v.st.Stack[:u.old.Spill.UMin], uint32(u.old.Spill.UMax)
		}
		t.stamps[u.loc] = u.stamp
	}
	t.log = t.log[:n]
}

// reg returns live register r for writing.
func (v *Verifier) reg(r ebpf.Reg) *RegState {
	v.save(int(r))
	return &v.st.Regs[r]
}

// setSlot stores frame slot i of the live state, growing Stack to it.
func (v *Verifier) setSlot(i int, slot StackSlot) {
	j := NumStackSlots - 1 - i
	if j < len(v.st.Stack) {
		v.save(locSlot + j)
	} else {
		v.save(locFrame)
		v.st.Stack = append(v.st.Stack, make([]StackSlot, j+1-len(v.st.Stack))...)
	}
	v.st.Stack[j] = slot
}
