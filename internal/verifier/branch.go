package verifier

import (
	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// branchOutcome is the tri-state result of is_branch_taken.
type branchOutcome int8

const (
	branchUnknown branchOutcome = iota - 1
	branchNever
	branchAlways
)

// isBranchTaken decides a conditional jump statically when the abstract
// values allow it, mirroring the kernel's is_branch_taken.
func isBranchTaken(dst, src *RegState, op uint8, is32 bool) branchOutcome {
	if is32 {
		d, s := dst.view32(), src.view32()
		return d.taken(&s, op)
	}
	d, s := dst.view64(), src.view64()
	return d.taken(&s, op)
}

// taken decides "d op s" at the interval's width when the bounds allow.
func (d *interval[U, S]) taken(s *interval[U, S], op uint8) branchOutcome {
	switch op {
	case ebpf.JmpJEQ, ebpf.JmpJNE:
		eq, ne := branchAlways, branchNever
		if op == ebpf.JmpJNE {
			eq, ne = ne, eq
		}
		if d.UMin == d.UMax && s.UMin == s.UMax && d.UMin == s.UMin {
			return eq
		}
		if d.UMax < s.UMin || d.UMin > s.UMax || d.SMax < s.SMin || d.SMin > s.SMax {
			return ne
		}
	case ebpf.JmpJGT:
		if d.UMin > s.UMax {
			return branchAlways
		}
		if d.UMax <= s.UMin {
			return branchNever
		}
	case ebpf.JmpJGE:
		if d.UMin >= s.UMax {
			return branchAlways
		}
		if d.UMax < s.UMin {
			return branchNever
		}
	case ebpf.JmpJLT:
		if d.UMax < s.UMin {
			return branchAlways
		}
		if d.UMin >= s.UMax {
			return branchNever
		}
	case ebpf.JmpJLE:
		if d.UMax <= s.UMin {
			return branchAlways
		}
		if d.UMin > s.UMax {
			return branchNever
		}
	case ebpf.JmpJSGT:
		if d.SMin > s.SMax {
			return branchAlways
		}
		if d.SMax <= s.SMin {
			return branchNever
		}
	case ebpf.JmpJSGE:
		if d.SMin >= s.SMax {
			return branchAlways
		}
		if d.SMax < s.SMin {
			return branchNever
		}
	case ebpf.JmpJSLT:
		if d.SMax < s.SMin {
			return branchAlways
		}
		if d.SMin >= s.SMax {
			return branchNever
		}
	case ebpf.JmpJSLE:
		if d.SMax <= s.SMin {
			return branchAlways
		}
		if d.SMin > s.SMax {
			return branchNever
		}
	case ebpf.JmpJSET:
		if s.Var.IsConst() {
			v := s.Var.Value
			if d.Var.Value&v != 0 {
				return branchAlways
			}
			if d.Var.Max()&v == 0 {
				return branchNever
			}
		}
	}
	return branchUnknown
}

// negateJmpOp returns the operation describing the fallthrough edge.
// JSET has no dual operation; callers handle it specially.
func negateJmpOp(op uint8) (uint8, bool) {
	switch op {
	case ebpf.JmpJEQ:
		return ebpf.JmpJNE, true
	case ebpf.JmpJNE:
		return ebpf.JmpJEQ, true
	case ebpf.JmpJGT:
		return ebpf.JmpJLE, true
	case ebpf.JmpJGE:
		return ebpf.JmpJLT, true
	case ebpf.JmpJLT:
		return ebpf.JmpJGE, true
	case ebpf.JmpJLE:
		return ebpf.JmpJGT, true
	case ebpf.JmpJSGT:
		return ebpf.JmpJSLE, true
	case ebpf.JmpJSGE:
		return ebpf.JmpJSLT, true
	case ebpf.JmpJSLT:
		return ebpf.JmpJSGE, true
	case ebpf.JmpJSLE:
		return ebpf.JmpJSGT, true
	}
	return 0, false
}

// regSetMinMax refines dst and src (both scalars) under the assumption
// that the branch with operation op evaluated to `taken`, mirroring
// reg_set_min_max. The refinement operates on the width selected by is32
// and re-syncs all domains. Both operands are refined as copies and
// written back dst first, so for `jX rN, rN` the source's refinement is
// the one rN keeps, at either width.
func regSetMinMax(dst, src *RegState, op uint8, taken bool, is32 bool) {
	if dst.Type != Scalar || src.Type != Scalar {
		return
	}
	if op == ebpf.JmpJSET {
		// Taken, dst & src != 0: a single-bit constant mask's bit is one.
		// Not taken: every bit of a constant mask is zero. JMP32 uses its low word.
		v := src.ConstVal()
		if is32 {
			v = uint64(uint32(v))
		}
		if src.IsConst() && (!taken || v != 0 && v&(v-1) == 0) {
			learnBits(dst, v, taken)
		}
		return
	}
	if !taken {
		neg, ok := negateJmpOp(op)
		if !ok {
			return
		}
		op = neg
	}
	if is32 {
		d, s := dst.view32(), src.view32()
		d.refine(&s, op)
		dst.set32(d)
		src.set32(s)
	} else {
		d, s := dst.view64(), src.view64()
		d.refine(&s, op)
		dst.set64(d)
		src.set64(s)
	}
	dst.sync()
	src.sync()
}

// learnBits records that mask's bits are all one in dst (zero if !ones).
func learnBits(dst *RegState, mask uint64, ones bool) {
	known := tnum.Tnum{Mask: ^mask}
	if ones {
		known.Value = mask
	}
	dst.Var = tnum.Intersect(dst.Var, known)
	dst.sync()
}

// refine narrows both intervals under "d op s" (the kernel's
// regs_refine_cond_op at one width).
func (d *interval[U, S]) refine(s *interval[U, S], op uint8) {
	maxS := S(^U(0) >> 1)
	switch op {
	case ebpf.JmpJEQ:
		// Both sides collapse onto the intersection.
		d.UMin, d.UMax = max(d.UMin, s.UMin), min(d.UMax, s.UMax)
		d.SMin, d.SMax = max(d.SMin, s.SMin), min(d.SMax, s.SMax)
		d.Var = tnum.Intersect(d.Var, s.Var)
		*s = *d
	case ebpf.JmpJNE:
		// Only useful when one side is constant at a range endpoint.
		if s.Var.IsConst() {
			v := U(s.Var.Value)
			if d.UMin == v && d.UMin < ^U(0) {
				d.UMin++
			}
			if d.UMax == v && d.UMax > 0 {
				d.UMax--
			}
			if d.SMin == S(v) && d.SMin < maxS {
				d.SMin++
			}
			if d.SMax == S(v) && d.SMax > ^maxS {
				d.SMax--
			}
		}
	case ebpf.JmpJGT:
		if s.UMin < ^U(0) {
			d.UMin = max(d.UMin, s.UMin+1)
		}
		if d.UMax > 0 {
			s.UMax = min(s.UMax, d.UMax-1)
		}
	case ebpf.JmpJGE:
		d.UMin = max(d.UMin, s.UMin)
		s.UMax = min(s.UMax, d.UMax)
	case ebpf.JmpJLT:
		if s.UMax > 0 {
			d.UMax = min(d.UMax, s.UMax-1)
		}
		if d.UMin < ^U(0) {
			s.UMin = max(s.UMin, d.UMin+1)
		}
	case ebpf.JmpJLE:
		d.UMax = min(d.UMax, s.UMax)
		s.UMin = max(s.UMin, d.UMin)
	case ebpf.JmpJSGT:
		if s.SMin < maxS {
			d.SMin = max(d.SMin, s.SMin+1)
		}
		if d.SMax > ^maxS {
			s.SMax = min(s.SMax, d.SMax-1)
		}
	case ebpf.JmpJSGE:
		d.SMin = max(d.SMin, s.SMin)
		s.SMax = min(s.SMax, d.SMax)
	case ebpf.JmpJSLT:
		if s.SMax > ^maxS {
			d.SMax = min(d.SMax, s.SMax-1)
		}
		if d.SMin < maxS {
			s.SMin = max(s.SMin, d.SMin+1)
		}
	case ebpf.JmpJSLE:
		d.SMax = min(d.SMax, s.SMax)
		s.SMin = max(s.SMin, d.SMin)
	}
}
