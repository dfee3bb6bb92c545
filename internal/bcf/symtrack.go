package bcf

import (
	"fmt"

	"bcf/internal/ebpf"
	"bcf/internal/expr"
	"bcf/internal/verifier"
)

// valKind classifies a symbolically tracked register.
type valKind uint8

const (
	kindScalar   valKind = iota
	kindStackPtr         // e is the byte offset from the frame top (r10)
	kindPtr              // e is the full offset from the object base
)

// symVal is the symbolic state of one register: an exact 64-bit
// expression for its value (scalars) or its offset (pointers).
type symVal struct {
	e    *expr.Expr
	kind valKind
}

// tracker performs the forward symbolic execution of a path suffix
// (§4 Symbolic Tracking). Unlike classical symbolic execution it never
// forks: the verifier's recorded branch history fixes every decision.
type tracker struct {
	tab    *expr.Table // the round's terms
	prog   *ebpf.Program
	regs   [ebpf.MaxReg]*symVal
	stack  map[int16]*symVal // 8-byte aligned register-size slots only
	constr []*expr.Expr
	nextID uint32
	steps  int
}

func newTracker(prog *ebpf.Program) *tracker {
	return &tracker{tab: expr.NewTable(0), prog: prog, stack: map[int16]*symVal{}}
}

// fresh introduces a new symbolic variable of the given width, extended
// to 64 bits. Narrow loads thereby carry their width bound for free (the
// paper's 32-bit narrowing generalized).
func (tk *tracker) fresh(width uint8) *expr.Expr {
	v := tk.tab.Var(tk.nextID, width)
	tk.nextID++
	if width < 64 {
		return tk.tab.ZExt(v, 64)
	}
	return v
}

// reg returns the register's symbolic value, lazily introducing a fresh
// variable for registers defined before the suffix.
func (tk *tracker) reg(r ebpf.Reg) *symVal {
	if tk.regs[r] == nil {
		if r == ebpf.R10 {
			tk.regs[r] = &symVal{e: tk.tab.Const(0, 64), kind: kindStackPtr}
		} else {
			tk.regs[r] = &symVal{e: tk.fresh(64)}
		}
	}
	return tk.regs[r]
}

func (tk *tracker) setReg(r ebpf.Reg, v symVal) {
	if v.e == nil {
		v.e = tk.fresh(64)
	}
	tk.regs[r] = &v
}

// fold constant-folds ground expressions so the fixed/variable split of
// pointer offsets mirrors the verifier's (which folds through tnum).
func (tk *tracker) fold(e *expr.Expr) *expr.Expr {
	if e.Op != expr.OpConst && e.IsGround() {
		return tk.tab.Const(e.GroundValue(), e.Width)
	}
	return e
}

// low32 extracts the low word of a 64-bit expression.
func (tk *tracker) low32(e *expr.Expr) *expr.Expr { return tk.fold(tk.tab.Extract(e, 0, 32)) }

// zext64 zero-extends back to 64 bits.
func (tk *tracker) zext64(e *expr.Expr) *expr.Expr { return tk.fold(tk.tab.ZExt(e, 64)) }

// run symbolically executes the tracked steps, oldest first, up to but
// not including the last one: the failing instruction, which has not
// executed. It returns an error for suffixes the tracker cannot follow.
func (tk *tracker) run(track []verifier.PathStep) error {
	for _, step := range track[:len(track)-1] {
		ins := tk.prog.Insns[step.Idx]
		tk.steps++
		if err := tk.exec(ins, step.Taken); err != nil {
			return fmt.Errorf("bcf: symbolic tracking at insn %d: %w", step.Idx, err)
		}
	}
	return nil
}

func (tk *tracker) exec(ins ebpf.Instruction, taken bool) error {
	switch ins.Class() {
	case ebpf.ClassALU64:
		return tk.execALU(ins, false)
	case ebpf.ClassALU:
		return tk.execALU(ins, true)
	case ebpf.ClassLD:
		if !ins.IsLoadImm64() {
			return fmt.Errorf("unsupported load mode")
		}
		if ins.Src == ebpf.PseudoMapFD {
			// A map pointer: offset tracking starts at zero.
			tk.setReg(ins.Dst, symVal{e: tk.tab.Const(0, 64), kind: kindPtr})
		} else {
			tk.setReg(ins.Dst, symVal{e: tk.tab.Const(uint64(ins.Imm), 64)})
		}
		return nil
	case ebpf.ClassLDX:
		return tk.execLoad(ins)
	case ebpf.ClassST, ebpf.ClassSTX:
		return tk.execStore(ins)
	case ebpf.ClassJMP, ebpf.ClassJMP32:
		return tk.execJump(ins, taken)
	}
	return fmt.Errorf("unsupported class %d", ins.Class())
}

func (tk *tracker) execALU(ins ebpf.Instruction, is32 bool) error {
	op := ins.AluOp()
	dst := tk.reg(ins.Dst)

	// Source operand as a 64-bit expression (sign-extended immediate).
	var src *symVal
	if ins.UsesSrcReg() && op != ebpf.AluNEG && op != ebpf.AluEND {
		src = tk.reg(ins.Src)
	} else {
		src = &symVal{e: tk.tab.Const(uint64(ins.Imm), 64)}
	}

	if op == ebpf.AluMOV {
		if is32 {
			if src.kind != kindScalar {
				tk.setReg(ins.Dst, symVal{e: tk.fresh(64)})
				return nil
			}
			tk.setReg(ins.Dst, symVal{e: tk.zext64(tk.low32(src.e))})
			return nil
		}
		tk.setReg(ins.Dst, *src)
		return nil
	}

	// Pointer arithmetic: offsets accumulate; everything else on a
	// pointer (or mixing pointers) degrades to a fresh scalar.
	if dst.kind != kindScalar || src.kind != kindScalar {
		if !is32 && (op == ebpf.AluADD || op == ebpf.AluSUB) {
			switch {
			case dst.kind != kindScalar && src.kind == kindScalar:
				e := tk.tab.Bin(aluExprOp(op), dst.e, src.e)
				tk.setReg(ins.Dst, symVal{e: tk.fold(e), kind: dst.kind})
				return nil
			case dst.kind == kindScalar && src.kind != kindScalar && op == ebpf.AluADD:
				e := tk.tab.Add(src.e, dst.e)
				tk.setReg(ins.Dst, symVal{e: tk.fold(e), kind: src.kind})
				return nil
			}
		}
		tk.setReg(ins.Dst, symVal{e: tk.fresh(64)})
		return nil
	}

	if op == ebpf.AluNEG {
		if is32 {
			tk.setReg(ins.Dst, symVal{e: tk.zext64(tk.fold(tk.tab.Neg(tk.low32(dst.e))))})
		} else {
			tk.setReg(ins.Dst, symVal{e: tk.fold(tk.tab.Neg(dst.e))})
		}
		return nil
	}
	if op == ebpf.AluEND {
		// Byteswaps introduce fresh variables (paper §5: incomplete
		// tracking is sound — conditions just get weaker).
		tk.setReg(ins.Dst, symVal{e: tk.fresh(64)})
		return nil
	}

	eop := aluExprOp(op)
	if eop == expr.OpInvalid {
		tk.setReg(ins.Dst, symVal{e: tk.fresh(64)})
		return nil
	}
	if is32 {
		a, b := tk.low32(dst.e), tk.low32(src.e)
		tk.setReg(ins.Dst, symVal{e: tk.zext64(tk.fold(tk.tab.Bin(eop, a, b)))})
		return nil
	}
	tk.setReg(ins.Dst, symVal{e: tk.fold(tk.tab.Bin(eop, dst.e, src.e))})
	return nil
}

func aluExprOp(op uint8) expr.Op {
	switch op {
	case ebpf.AluADD:
		return expr.OpAdd
	case ebpf.AluSUB:
		return expr.OpSub
	case ebpf.AluMUL:
		return expr.OpMul
	case ebpf.AluAND:
		return expr.OpAnd
	case ebpf.AluOR:
		return expr.OpOr
	case ebpf.AluXOR:
		return expr.OpXor
	case ebpf.AluLSH:
		return expr.OpShl
	case ebpf.AluRSH:
		return expr.OpLshr
	case ebpf.AluARSH:
		return expr.OpAshr
	case ebpf.AluDIV:
		return expr.OpUDiv
	case ebpf.AluMOD:
		return expr.OpURem
	}
	return expr.OpInvalid
}

// stackSlot returns the constant frame offset when the register is a
// frame pointer with an exactly known offset.
func (tk *tracker) stackSlot(r ebpf.Reg, off int16) (int16, bool) {
	v := tk.reg(r)
	if v.kind != kindStackPtr {
		return 0, false
	}
	c, ok := v.e.IsConst()
	if !ok {
		return 0, false
	}
	return int16(int64(c)) + off, true
}

func (tk *tracker) execLoad(ins ebpf.Instruction) error {
	size := ins.LoadSize()
	if slot, ok := tk.stackSlot(ins.Src, ins.Off); ok {
		if size == 8 && slot%8 == 0 {
			if v, present := tk.stack[slot]; present {
				tk.setReg(ins.Dst, *v)
				return nil
			}
		}
		// Sub-register or untracked slot: fresh, width-bounded (§5
		// Limitations: only register-sized spills are tracked).
		tk.setReg(ins.Dst, symVal{e: tk.fresh(uint8(size * 8))})
		return nil
	}
	tk.setReg(ins.Dst, symVal{e: tk.fresh(uint8(size * 8))})
	return nil
}

func (tk *tracker) execStore(ins ebpf.Instruction) error {
	size := ins.LoadSize()
	slot, isStack := tk.stackSlot(ins.Dst, ins.Off)
	if !isStack {
		v := tk.reg(ins.Dst)
		if v.kind == kindPtr {
			// Stores through non-stack object pointers cannot alias the
			// tracked frame slots.
			return nil
		}
		// A store through an untracked pointer may alias anything.
		tk.stack = map[int16]*symVal{}
		return nil
	}
	if size == 8 && slot%8 == 0 {
		if ins.Class() == ebpf.ClassSTX {
			v := *tk.reg(ins.Src)
			tk.stack[slot] = &v
		} else {
			tk.stack[slot] = &symVal{e: tk.tab.Const(uint64(ins.Imm), 64)}
		}
		return nil
	}
	// Partial overwrite invalidates any overlapping tracked slot.
	lo := slot &^ 7
	hi := (slot + int16(size) - 1) &^ 7
	for s := lo; s <= hi; s += 8 {
		delete(tk.stack, s)
	}
	return nil
}

func (tk *tracker) execJump(ins ebpf.Instruction, taken bool) error {
	op := ins.JmpOp()
	switch op {
	case ebpf.JmpJA:
		return nil
	case ebpf.JmpEXIT:
		return fmt.Errorf("exit inside path suffix")
	case ebpf.JmpCALL:
		// Helper calls clobber R0-R5 and may write through pointer
		// arguments; conservatively drop the tracked stack.
		for r := ebpf.R0; r <= ebpf.R5; r++ {
			tk.setReg(r, symVal{e: tk.fresh(64)})
		}
		tk.stack = map[int16]*symVal{}
		// Map lookups return object pointers whose offset we track.
		if ebpf.HelperID(ins.Imm) == ebpf.FnMapLookupElem {
			tk.setReg(ebpf.R0, symVal{e: tk.tab.Const(0, 64), kind: kindPtr})
		}
		return nil
	}
	is32 := ins.Class() == ebpf.ClassJMP32
	dst := tk.reg(ins.Dst)
	var src *symVal
	if ins.UsesSrcReg() {
		src = tk.reg(ins.Src)
	} else {
		src = &symVal{e: tk.tab.Const(uint64(ins.Imm), 64)}
	}
	if dst.kind != kindScalar || src.kind != kindScalar {
		// Constraints over pointers (null checks) are dropped: sound,
		// merely weaker premises.
		return nil
	}
	a, b := dst.e, src.e
	if is32 {
		a, b = tk.low32(a), tk.low32(b)
		if !ins.UsesSrcReg() {
			b = tk.tab.Const(uint64(uint32(ins.Imm)), 32)
		}
	}
	c := tk.condExpr(op, a, b)
	if c == nil {
		return nil
	}
	if !taken {
		c = tk.tab.BoolNot(c)
	}
	tk.constr = append(tk.constr, c)
	return nil
}

// condExpr builds the branch predicate for a jump operation.
func (tk *tracker) condExpr(op uint8, a, b *expr.Expr) *expr.Expr {
	switch op {
	case ebpf.JmpJEQ:
		return tk.tab.Eq(a, b)
	case ebpf.JmpJNE:
		return tk.tab.Ne(a, b)
	case ebpf.JmpJGT:
		return tk.tab.Ult(b, a)
	case ebpf.JmpJGE:
		return tk.tab.Ule(b, a)
	case ebpf.JmpJLT:
		return tk.tab.Ult(a, b)
	case ebpf.JmpJLE:
		return tk.tab.Ule(a, b)
	case ebpf.JmpJSGT:
		return tk.tab.Slt(b, a)
	case ebpf.JmpJSGE:
		return tk.tab.Sle(b, a)
	case ebpf.JmpJSLT:
		return tk.tab.Slt(a, b)
	case ebpf.JmpJSLE:
		return tk.tab.Sle(a, b)
	case ebpf.JmpJSET:
		return tk.tab.Ne(tk.tab.And(a, b), tk.tab.Const(0, a.Width))
	}
	return nil
}
