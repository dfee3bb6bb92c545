package verifier

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"bcf/internal/ebpf"
	"bcf/internal/tnum"
)

// CheckKind classifies the safety check that failed; BCF uses it to decide
// whether and how to refine.
type CheckKind uint8

// Check kinds.
const (
	CheckNone        CheckKind = iota
	CheckMapAccess             // map value load/store bounds
	CheckStackAccess           // stack load/store bounds
	CheckHelperSize            // helper memory-size argument bounds
	CheckHelperMem             // helper memory-pointer argument bounds
	CheckCtxAccess             // context access (not instrumented for refinement)
	CheckPktAccess             // packet data access bounds (XDP data/data_end)
	CheckRetRange              // program return-value range at exit (cgroup)
	CheckOther
)

var checkKindNames = [...]string{"none", "map-access", "stack-access", "helper-size",
	"helper-mem", "ctx-access", "pkt-access", "ret-range", "other"}

func (k CheckKind) String() string {
	if int(k) < len(checkKindNames) {
		return checkKindNames[k]
	}
	return "none"
}

// Error is a verification failure. Cause, when set, carries the
// underlying refinement failure (proof rejected, solver timeout, session
// limit …) so structured error classes survive the verifier boundary;
// errors.Is / errors.As reach it through Unwrap.
type Error struct {
	InsnIdx int
	Kind    CheckKind
	Msg     string
	Cause   error
}

func (e *Error) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("insn %d: %s: %v", e.InsnIdx, e.Msg, e.Cause)
	}
	return fmt.Sprintf("insn %d: %s", e.InsnIdx, e.Msg)
}

func (e *Error) Unwrap() error { return e.Cause }

// pathNode is one step of the per-path history: 16 bytes and no
// pointers, held in the Verifier's nodeArena and named by index. Each
// analyzed instruction appends a node; a forked branch gets its own node
// for the jump and shares the prefix.
type pathNode struct {
	parent int32 // the previous step; -1 at the path's first step
	idx    int32
	// entry is the id of the pruning-table entry recorded at idx just
	// before this instruction was analyzed, or -1 when none was. A later
	// path-conditional refinement retracts the entries inside its track
	// (see retractEntries).
	entry int32
	taken bool // meaningful for conditional jumps
}

// arenaChunkBits sizes the arena's first chunk: 1<<arenaChunkBits nodes
// (256 B), so a short program pays little for its arena.
const arenaChunkBits = 4

// nodeArena holds pathNodes in chunks of 16, 32, 64, … nodes. Chunks
// never move, so a *pathNode stays valid while the arena grows, and the
// node at index i lives in chunk bits.Len32(i+16)-5.
type nodeArena struct {
	chunks [][]pathNode
	n      int32 // nodes in use
}

// at returns the node at index i.
func (a *nodeArena) at(i int32) *pathNode {
	u := uint32(i) + 1<<arenaChunkBits
	k := bits.Len32(u) - arenaChunkBits - 1
	return &a.chunks[k][u-1<<(k+arenaChunkBits)]
}

// add appends n and returns its index.
func (a *nodeArena) add(n pathNode) int32 {
	i := a.n
	if k := bits.Len32(uint32(i)+1<<arenaChunkBits) - arenaChunkBits - 1; k == len(a.chunks) {
		a.chunks = append(a.chunks, make([]pathNode, 1<<(k+arenaChunkBits)))
	}
	a.n++
	*a.at(i) = n
	return i
}

// PathStep is one step of the analysis path handed to the Refiner.
type PathStep struct {
	Idx   int
	Taken bool
}

// Path is a read-only view of the analysis path that ends at the failing
// instruction. It shares the walk's node arena, so handing it to the
// Refiner copies nothing; a refiner reads back from the failing
// instruction only as far as its track reaches. A Path from a
// RefineRequest is valid until Refine returns: the walk then reuses the
// nodes of finished paths.
type Path struct {
	arena *nodeArena
	n     int32 // the newest step; unused when arena is nil (no steps)
}

// nodes yields the path's nodes newest first.
func (p Path) nodes(yield func(*pathNode) bool) {
	if p.arena == nil {
		return
	}
	for i := p.n; i >= 0; {
		n := p.arena.at(i)
		if !yield(n) {
			return
		}
		i = n.parent
	}
}

// Backward yields the path's steps newest first, starting with the
// failing instruction.
func (p Path) Backward() iter.Seq[PathStep] {
	return func(yield func(PathStep) bool) {
		for n := range p.nodes {
			if !yield(PathStep{Idx: int(n.idx), Taken: n.taken}) {
				return
			}
		}
	}
}

// Tail materializes the newest k steps (all of them on a shorter path),
// oldest first. It is the only copy of the path a refinement makes.
func (p Path) Tail(k int) []PathStep {
	out := make([]PathStep, max(k, 0))
	i := len(out)
	for n := range p.nodes {
		if i == 0 {
			break
		}
		i--
		out[i] = PathStep{Idx: int(n.idx), Taken: n.taken}
	}
	return out[i:]
}

// NewPath builds a Path over steps, oldest first, outside any walk: for
// driving a Refiner by hand, as tests do.
func NewPath(steps ...PathStep) Path {
	if len(steps) == 0 {
		return Path{}
	}
	a := &nodeArena{}
	for i, s := range steps {
		a.add(pathNode{parent: int32(i) - 1, idx: int32(s.Idx), entry: -1, taken: s.Taken})
	}
	return Path{a, a.n - 1}
}

// Len walks the whole chain and returns the number of steps.
func (p Path) Len() int {
	count := 0
	for range p.nodes {
		count++
	}
	return count
}

// RefineRequest describes a failed check that BCF may repair. Path ends
// at the failing instruction InsnIdx, which has not executed; State is
// the walk's live state, read-only and, like Path, valid until Refine
// returns. WantLo and WantHi give the unsigned range the target value
// (the scalar register's value, or the variable part of a pointer
// register's offset) must be proven to lie in for the check to pass.
type RefineRequest struct {
	Prog    *ebpf.Program
	State   *VState
	Path    Path
	InsnIdx int
	Reg     ebpf.Reg
	Kind    CheckKind
	WantLo  uint64
	WantHi  uint64
}

// RefineResult carries the proven bounds to adopt. When Pruned is set the
// refiner instead proved the current path's constraints unsatisfiable:
// the verifier abandons the (infeasible) path rather than refining.
//
// Anchor is the length of the proof's symbolic track counted back from
// the failing instruction, which it includes: 1 anchors the track at the
// failing instruction itself, k at the k-th newest step of Path. The
// proof is valid for any execution that traverses those k steps (its
// variables are fresh at the anchor) but says nothing about executions
// that reach a mid-track instruction by a different route. The verifier
// uses it to retract the pruning-table entries the refinement
// invalidates. The zero value means the whole path, the most
// conservative anchor.
type RefineResult struct {
	Lo, Hi uint64
	Pruned bool
	Anchor int
}

// errInfeasiblePath is the sentinel used internally when BCF proves the
// current analysis path unreachable; the walk treats it as path end.
var errInfeasiblePath = &Error{Kind: CheckNone, Msg: "path proven infeasible"}

// retractEntries kills the pruning-table entries recorded inside a
// refinement's track: those of the newest anchor-1 nodes from node (the
// failing instruction) back, or of every node but the path's first when
// anchor is 0. A granted refinement proves its condition only for
// executions traversing the track, so an entry inside it — whose
// continuation was vindicated by that proof — must not prune a state
// that reaches the same pc along a different history: the proof does not
// cover it, and pruning there once accepted a program with a concrete
// out-of-bounds read (fuzz-accept-safe regression). The anchor's own
// entry and those before it stay: the track's variables are fresh at
// the anchor, so the proof covers every execution their subtrees admit.
// The sweep walks only the track. Forked siblings share the prefix's
// entries, and killing one is idempotent, so re-sweeping after a second
// refinement is harmless; an entry evicted since matches no id.
func (v *Verifier) retractEntries(node int32, anchor int) {
	for k := 1; anchor == 0 || k < anchor; k++ {
		n := v.nodes.at(node)
		if n.parent < 0 {
			return
		}
		if n.entry >= 0 {
			for i := range v.explored[n.idx] {
				if e := &v.explored[n.idx][i]; e.id == n.entry {
					e.dead = true
				}
			}
		}
		node = n.parent
	}
}

// Refiner is the hook through which proof-guided abstraction refinement is
// plugged into the verifier (implemented by internal/bcf). A nil Refiner
// yields the baseline in-tree behaviour: immediate rejection.
type Refiner interface {
	Refine(req *RefineRequest) (*RefineResult, error)
}

// Stats aggregates per-verification counters (Table 3). The walk is one
// sequential DFS, so every field is deterministic.
type Stats struct {
	InsnProcessed  int
	PathsExplored  int
	StatesPruned   int
	PeakStackDepth int // largest branch stack seen before a pop
	Refinements    int // granted refinements
	RefineAttempts int // requests issued to the Refiner
	StatesRecorded int // pruning-table entries added (kernel: total_states)
}

// RegRange declares the fixpoint range of one register at a loop head.
type RegRange struct {
	Reg        ebpf.Reg
	UMin, UMax uint64
}

// LoopInvariant is a precomputed loop fixpoint supplied with the program
// (the §7 "embed precomputed fixpoints" extension): at the loop-head
// instruction, each listed register is widened to its declared range.
// The verifier validates the fixpoint in a single pass — entry states
// must lie within the declared ranges (else the load is rejected), and
// inductiveness follows from state pruning: the once-widened state
// subsumes every later arrival, so the loop body is analyzed once.
type LoopInvariant struct {
	Insn int
	Regs []RegRange
}

// Config controls a verification run.
type Config struct {
	// InsnLimit bounds total analyzed instructions (kernel: one million).
	InsnLimit int
	// Refiner enables BCF when non-nil.
	Refiner Refiner
	// NoPruning disables state pruning (for ablation benchmarks).
	NoPruning bool
	// LoopInvariants supplies precomputed loop fixpoints (§7 extension).
	LoopInvariants []LoopInvariant
	// Observer, when non-nil, receives the walk's events.
	Observer Observer
	// Sabotage deliberately weakens the verifier for oracle mutation
	// tests. Never set outside tests.
	Sabotage *Sabotage
	// Deprecated: ParallelPaths is ignored. Every value, including the
	// default, means one sequential DFS on the calling goroutine
	// (DESIGN.md, "Exploration").
	ParallelPaths int
}

// DefaultInsnLimit mirrors the kernel's BPF_COMPLEXITY_LIMIT_INSNS.
const DefaultInsnLimit = 1_000_000

// Verifier analyzes one program. A Verifier is single-use: create a new
// one for every Verify call.
type Verifier struct {
	prog *ebpf.Program
	cfg  Config

	stats Stats
	tok   any // the observer's token for the path's latest instruction event

	// explored is the pruning table: the recorded states of each pc.
	explored [][]exploredEntry
	free     []*VState // evicted entries' states, for pruned to reuse
	// jmps counts jump-class insns (kernel: jmps_processed); prevJmps and
	// prevInsns are it and InsnProcessed at the last record.
	jmps, prevJmps, prevInsns int
	// prunePoints holds each pc's kind (noPoint, prunePoint, checkpoint).
	prunePoints []uint8
	idGen       uint32
	// ids is statesSubsume's identity-pair scratch, reset per call.
	ids idMap

	// stack holds the pending branches, newest last; nodes holds the
	// history of the current path and of every pending branch.
	stack []branchItem
	nodes nodeArena

	// st is the walk's one live state. Every write to it goes through
	// save, which logs it on trail; popping a branch undoes the trail to
	// the branch's fork mark.
	st    VState
	trail *trail

	// budgetErr is the single instruction-budget rejection. It carries
	// no pc (InsnIdx -1): the budget is spent by the whole exploration,
	// not by the instruction that happens to exhaust it.
	budgetErr *Error
}

// New prepares a verifier for prog.
func New(prog *ebpf.Program, cfg Config) *Verifier {
	if cfg.InsnLimit == 0 {
		cfg.InsnLimit = DefaultInsnLimit
	}
	return &Verifier{
		prog:        prog,
		cfg:         cfg,
		explored:    make([][]exploredEntry, len(prog.Insns)),
		prunePoints: computePrunePoints(prog, cfg.LoopInvariants),
		st:          entryState(),
		budgetErr: &Error{InsnIdx: -1, Kind: CheckOther,
			Msg: fmt.Sprintf("BPF program is too large. Processed %d insn", cfg.InsnLimit)},
	}
}

// Stats returns the counters of the last Verify run.
func (v *Verifier) Stats() Stats { return v.stats }

// emit reports an event other than an instruction to the observer, if any.
func (v *Verifier) emit(ev Event) {
	if v.cfg.Observer != nil {
		v.cfg.Observer.Observe(v.tok, ev)
	}
}

func (v *Verifier) newID() uint32 {
	v.idGen++
	return v.idGen
}

// chargeInsn consumes one unit of the instruction budget, a hard cap:
// InsnProcessed never exceeds InsnLimit.
func (v *Verifier) chargeInsn() bool {
	if v.stats.InsnProcessed >= v.cfg.InsnLimit {
		return false
	}
	v.stats.InsnProcessed++
	return true
}

// pathDone converts the infeasible-path sentinel into a clean path end.
func pathDone(err error) error {
	if err == errInfeasiblePath {
		return nil
	}
	return err
}

// branchItem is a pending branch: the taken side of the jump at pc, under
// node (-1 for the entry), forked when the trail's length was trail.
type branchItem struct {
	pc, node, trail int32
	obs             any // observer token of the forking instruction
}

// Verify runs the analysis and returns nil if the program is safe. It
// explores the program depth first from the entry state: it pops the
// newest pending branch, walks it, and returns the first path error.
func (v *Verifier) Verify() error {
	if err := v.prog.Validate(); err != nil {
		return &Error{InsnIdx: 0, Kind: CheckOther, Msg: err.Error()}
	}
	defer func() {
		if t := v.trail; t != nil {
			t.log, t.stamps, v.trail = t.log[:0], [locFrame + 1]uint32{}, nil
			trails.Put(t)
		}
	}()
	v.stack = append(v.stack, branchItem{node: -1})
	for len(v.stack) > 0 {
		v.stats.PeakStackDepth = max(v.stats.PeakStackDepth, len(v.stack))
		item := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		// Every node past the item's own belongs to a finished walk: the
		// walk that forked it, or a branch pushed later and popped earlier.
		v.nodes.n = item.node + 1
		v.stats.PathsExplored++
		pc := 0
		if item.node >= 0 {
			// Back to the state before the fork, then onto its taken side.
			v.undo(int(item.trail))
			pc = v.takeBranch(int(item.pc), true)
		}
		v.tok = item.obs
		if err := v.walk(pc, item.node); err != nil {
			return err
		}
	}
	return nil
}

// fork queues the taken side of the conditional jump at pc, whose node
// is node; writes from now on are logged under its mark.
func (v *Verifier) fork(node int32, pc int) {
	if v.trail == nil {
		v.trail = trails.Get().(*trail)
	}
	n := *v.nodes.at(node)
	n.taken = true
	v.stack = append(v.stack, branchItem{pc: int32(pc), node: v.nodes.add(n),
		trail: int32(len(v.trail.log)), obs: v.tok})
}

// walk analyzes one path from pc until exit, prune or error, pushing the
// taken sides of undecided branches onto the stack.
func (v *Verifier) walk(pc int, node int32) error {
	st := &v.st
	for {
		if !v.chargeInsn() {
			return v.budgetErr
		}
		if pc < 0 || pc >= len(v.prog.Insns) {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "fell off the end of the program"}
		}
		ins := &v.prog.Insns[pc]
		if ins.IsPlaceholder() {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "jump into the middle of ld_imm64"}
		}
		// Precomputed loop fixpoints: widen before recording explored
		// states, so the widened state is the one future arrivals are
		// pruned against (which is exactly the inductiveness check).
		if len(v.cfg.LoopInvariants) > 0 {
			if err := v.applyInvariants(st, pc); err != nil {
				return err
			}
		}
		// Pruning at jump targets.
		entry := int32(-1)
		if !v.cfg.NoPruning && v.prunePoints[pc] != noPoint {
			var hit bool
			if hit, entry = v.pruned(pc, st); hit {
				v.stats.StatesPruned++
				v.emit(Event{Kind: EventPruned, PC: pc})
				return nil
			}
		}
		node = v.nodes.add(pathNode{parent: node, idx: int32(pc), entry: entry})
		if o := v.cfg.Observer; o != nil {
			v.tok = o.Observe(v.tok, Event{Kind: EventInsn, PC: pc, Insn: ins, State: st})
		}

		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if err := v.checkALU(st, pc, ins); err != nil {
				return pathDone(err)
			}
			pc++

		case ebpf.ClassLD:
			if !ins.IsLoadImm64() {
				return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "unsupported ld mode"}
			}
			dst := v.reg(ins.Dst)
			if ins.Src == ebpf.PseudoMapFD {
				*dst = RegState{Type: ConstPtrToMap, MapIdx: int32(uint32(ins.Imm))}
				dst.zeroVar()
			} else {
				dst.setConst(uint64(ins.Imm))
			}
			pc += 2

		case ebpf.ClassLDX:
			if err := v.checkLoad(st, pc, ins, node); err != nil {
				return pathDone(err)
			}
			pc++

		case ebpf.ClassST, ebpf.ClassSTX:
			if err := v.checkStore(st, pc, ins, node); err != nil {
				return pathDone(err)
			}
			pc++

		case ebpf.ClassJMP, ebpf.ClassJMP32:
			v.jmps++
			op := ins.JmpOp()
			switch op {
			case ebpf.JmpEXIT:
				if err := v.checkExit(st, pc, node); err != nil {
					return pathDone(err)
				}
				v.emit(Event{Kind: EventPathOK, PC: pc})
				return nil
			case ebpf.JmpJA:
				if ins.Class() == ebpf.ClassJMP32 {
					return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "invalid jmp32 ja"}
				}
				pc += 1 + int(ins.Off)
				continue
			case ebpf.JmpCALL:
				if err := v.checkCall(st, pc, ins, node); err != nil {
					return pathDone(err)
				}
				pc++
				continue
			}
			next, err := v.checkCondJmp(st, pc, ins, node)
			if err != nil {
				return err
			}
			pc = next

		default:
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("unknown insn class %d", ins.Class())}
		}
	}
}

// checkExit validates the state at an exit instruction
// (check_return_code). Every program type requires R0 readable; cgroup
// programs additionally constrain the return value to [0, 1], with a
// failed range check instrumented for BCF refinement like any other
// bounds check: the refiner is asked to prove R0's value lies in the
// accepted range on this path.
func (v *Verifier) checkExit(st *VState, pc int, node int32) error {
	for {
		r0 := &st.Regs[ebpf.R0]
		if r0.Type == NotInit {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "R0 !read_ok"}
		}
		if v.prog.Type != ebpf.ProgCgroupSkb {
			return nil
		}
		if r0.Type != Scalar {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: "At program exit the register R0 must be a scalar value"}
		}
		if r0.UMax <= 1 {
			return nil
		}
		orig := &Error{InsnIdx: pc, Kind: CheckRetRange,
			Msg: fmt.Sprintf("At program exit the register R0 has value (umin=%d, umax=%d) should have been in [0, 1]",
				r0.UMin, r0.UMax)}
		if rerr := v.refine(st, pc, ebpf.R0, CheckRetRange, 0, 1, node, func() error { return orig }); rerr != nil {
			return rerr
		}
		// Refinement adopted: re-check the return range.
	}
}

// checkALU verifies one ALU instruction and applies its transfer function.
func (v *Verifier) checkALU(st *VState, pc int, ins *ebpf.Instruction) error {
	is32 := ins.Class() == ebpf.ClassALU
	op := ins.AluOp()
	dst := v.reg(ins.Dst)

	if ins.Dst == ebpf.R10 {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "frame pointer is read only"}
	}

	// Source operand: the source register in place, or an immediate
	// materialized in imm. A source that is also the destination needs no
	// copy: the transfer functions read both operands before writing dst.
	var imm RegState
	src := &imm
	if ins.UsesSrcReg() && op != ebpf.AluNEG && op != ebpf.AluEND {
		src = &st.Regs[ins.Src]
		if src.Type == NotInit {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
		}
	} else {
		imm.setConst(uint64(ins.Imm))
	}

	switch op {
	case ebpf.AluMOV:
		if is32 {
			if src.Type.IsPtr() {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("R%d partial copy of pointer", ins.Src)}
			}
			*dst = *src
			dst.ID = 0
			dst.zext32()
		} else {
			if ins.UsesSrcReg() && src.Type == Scalar && src.ID == 0 {
				// Track scalar aliases so branch refinements propagate
				// (find_equal_scalars).
				v.reg(ins.Src).ID = v.newID()
			}
			*dst = *src
		}
		return nil

	case ebpf.AluNEG:
		if dst.Type != Scalar {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: fmt.Sprintf("R%d pointer arithmetic prohibited", ins.Dst)}
		}
		if dst.IsConst() {
			val := dst.ConstVal()
			if is32 {
				dst.setConst(uint64(uint32(-int32(uint32(val)))))
			} else {
				dst.setConst(-val)
			}
		} else {
			dst.markUnknown()
			if is32 {
				dst.zext32()
			}
		}
		return nil

	case ebpf.AluEND:
		if dst.Type != Scalar {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "byteswap on pointer prohibited"}
		}
		dst.markUnknown()
		dst.ID = 0
		return nil
	}

	if dst.Type == NotInit {
		return &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: fmt.Sprintf("R%d !read_ok", ins.Dst)}
	}

	// Pointer arithmetic.
	if dst.Type.IsPtr() || src.Type.IsPtr() {
		if is32 {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "32-bit pointer arithmetic prohibited"}
		}
		return v.adjustPtr(st, pc, ins, dst, src)
	}

	// Scalar ALU.
	if (op == ebpf.AluDIV || op == ebpf.AluMOD) && !ins.UsesSrcReg() && ins.Imm == 0 {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "division by zero"}
	}
	aluScalar(dst, src, op, is32)
	if !is32 && op == ebpf.AluADD {
		v.cfg.Sabotage.collapseAdd(dst)
	}
	return nil
}

// adjustPtr implements pointer +/- scalar arithmetic
// (adjust_ptr_min_max_vals).
func (v *Verifier) adjustPtr(st *VState, pc int, ins *ebpf.Instruction, dst *RegState, src *RegState) error {
	op := ins.AluOp()
	if op != ebpf.AluADD && op != ebpf.AluSUB {
		return &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: fmt.Sprintf("R%d pointer arithmetic with %s operator prohibited", ins.Dst, ebpf.AluOpName(op))}
	}
	var ptr, scalar *RegState
	switch {
	case dst.Type.IsPtr() && src.Type.IsPtr():
		opStr := "+="
		if op == ebpf.AluSUB {
			opStr = "-="
		}
		return &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: fmt.Sprintf("R%d pointer %s pointer prohibited", ins.Dst, opStr)}
	case dst.Type.IsPtr():
		ptr, scalar = dst, src
	default:
		// scalar += ptr is allowed for ADD only.
		if op == ebpf.AluSUB {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "scalar -= pointer prohibited"}
		}
		ptr, scalar = src, dst
	}
	if ptr.Type == PtrToMapValueOrNull {
		return &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: "pointer arithmetic on map_value_or_null prohibited, null-check it first"}
	}
	if ptr.Type == ConstPtrToMap {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "pointer arithmetic on map_ptr prohibited"}
	}
	if ptr.Type == PtrToPacketEnd {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "pointer arithmetic on pkt_end prohibited"}
	}

	out := *ptr
	out.ID = 0
	if scalar.IsConst() {
		// Constant moves the fixed offset.
		delta := int64(scalar.ConstVal())
		if op == ebpf.AluSUB {
			delta = -delta
		}
		newOff := int64(out.Off) + delta
		if newOff != int64(int32(newOff)) {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "pointer offset out of range"}
		}
		out.Off = int32(newOff)
	} else {
		// An unknown scalar moves the variable offset, whose bounds follow
		// the scalar transfer function; the pointer stays a pointer.
		out.alu64(op, scalar)
	}
	*dst = out
	return nil
}

// applyRefinedRange adopts a proof-checked refinement of the target
// register's value (or pointer variable offset).
func applyRefinedRange(reg *RegState, lo, hi uint64) {
	reg.UMin = max(reg.UMin, lo)
	reg.UMax = min(reg.UMax, hi)
	if reg.UMin > reg.UMax {
		// The refinement proved a range disjoint from the current one;
		// the path is infeasible. Collapse to the proven range.
		reg.UMin, reg.UMax = lo, hi
		reg.Var = tnum.Range(lo, hi)
	}
	reg.SMin, reg.SMax = math.MinInt64, math.MaxInt64
	if reg.UMax <= uint64(math.MaxInt64) {
		reg.SMin, reg.SMax = int64(reg.UMin), int64(reg.UMax)
	}
	reg.markRangesUnknown32()
	reg.sync()
}

// refine consults the Refiner for a failed check; it returns nil if the
// refinement succeeded and analysis may retry the instruction.
// A request with wantLo > wantHi asks the refiner to prove the current
// path infeasible instead (no variable range can make the check pass).
// orig builds the failed check's error, needed only if none is adopted.
func (v *Verifier) refine(st *VState, pc int, regno ebpf.Reg, kind CheckKind,
	wantLo, wantHi uint64, node int32, orig func() error) error {
	if v.cfg.Refiner == nil {
		return orig()
	}
	// Loops legitimately re-refine the same instruction on every
	// iteration (§6.3: up to 16k refinements per program), so there is no
	// per-site cap; termination is ensured by the progress check below
	// and by the global instruction budget.
	v.stats.RefineAttempts++
	req := &RefineRequest{
		Prog:    v.prog,
		State:   st,
		Path:    Path{&v.nodes, node},
		InsnIdx: pc,
		Reg:     regno,
		Kind:    kind,
		WantLo:  wantLo,
		WantHi:  wantHi,
	}
	res, err := v.cfg.Refiner.Refine(req)
	if err == nil {
		// The grant is conditional on the branches inside the proof's
		// track: this path's earlier "explored without error" claims no
		// longer transfer to states that arrive mid-track by a different
		// route. Retract those pruning entries before using the result.
		v.retractEntries(node, res.Anchor)
	}
	if err != nil {
		v.emit(Event{Kind: EventRefineFailed, PC: pc, Err: err})
		// Surface the refinement failure as the cause of the original
		// safety error: the rejection reason stays the failed check, but
		// the class of the failure (proof rejected, timeout, protocol)
		// remains reachable for errors.Is and eval bucketing.
		oerr := orig()
		if oe, ok := oerr.(*Error); ok && oe.Cause == nil {
			return &Error{InsnIdx: oe.InsnIdx, Kind: oe.Kind, Msg: oe.Msg, Cause: err}
		}
		return oerr
	}
	if res.Pruned {
		v.stats.Refinements++
		v.emit(Event{Kind: EventInfeasible, PC: pc})
		return errInfeasiblePath
	}
	reg := v.reg(regno)
	before := *reg
	applyRefinedRange(reg, res.Lo, res.Hi)
	if before == *reg {
		// No progress; avoid looping forever.
		return orig()
	}
	v.stats.Refinements++
	v.emit(Event{Kind: EventRefined, PC: pc, Reg: regno, Lo: res.Lo, Hi: res.Hi})
	return nil
}
