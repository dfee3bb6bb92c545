package verifier

import (
	"fmt"
	"iter"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bcf/internal/ebpf"
	"bcf/internal/obs"
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

func (k CheckKind) String() string {
	switch k {
	case CheckMapAccess:
		return "map-access"
	case CheckStackAccess:
		return "stack-access"
	case CheckHelperSize:
		return "helper-size"
	case CheckHelperMem:
		return "helper-mem"
	case CheckCtxAccess:
		return "ctx-access"
	case CheckPktAccess:
		return "pkt-access"
	case CheckRetRange:
		return "ret-range"
	case CheckOther:
		return "other"
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

// pathNode is one step of the immutable per-path history. Each analyzed
// instruction appends a node; branch pushes share the prefix. The
// Refiner reads the analysis path through a Path view of the chain.
type pathNode struct {
	parent *pathNode
	idx    int32
	taken  bool // meaningful for conditional jumps
	// entry points at the liveness flag of the pruning-table entry
	// recorded just before this instruction was analyzed (nil when none
	// was). A later path-conditional refinement retracts the entries
	// inside its track by setting the flags (see retractEntries).
	entry *atomic.Bool
}

// nodeSlab hands out one walk's pathNodes from chunks of 8, 16, … up to
// 256 nodes rather than one heap object per instruction. A chunk is never
// appended past its capacity, so nodes never move, and it stays alive
// while any of its nodes is reachable (e.g. from a forked child's path).
type nodeSlab struct{ chunk []pathNode }

// node returns a fresh node appended under parent.
func (s *nodeSlab) node(parent *pathNode, idx int, entry *atomic.Bool) *pathNode {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]pathNode, 0, min(max(2*cap(s.chunk), 8), 256))
	}
	s.chunk = append(s.chunk, pathNode{parent: parent, idx: int32(idx), entry: entry})
	return &s.chunk[len(s.chunk)-1]
}

// PathStep is one step of the analysis path handed to the Refiner.
type PathStep struct {
	Idx   int
	Taken bool
}

// Path is a read-only view of the analysis path that ends at the failing
// instruction. It shares the walk's immutable node chain, so handing it
// to the Refiner copies nothing; a refiner reads back from the failing
// instruction only as far as its track reaches.
type Path struct{ n *pathNode }

// Backward yields the path's steps newest first, starting with the
// failing instruction.
func (p Path) Backward() iter.Seq[PathStep] {
	return func(yield func(PathStep) bool) {
		for n := p.n; n != nil; n = n.parent {
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
	for n := p.n; n != nil && i > 0; n = n.parent {
		i--
		out[i] = PathStep{Idx: int(n.idx), Taken: n.taken}
	}
	return out[i:]
}

// NewPath builds a Path over steps, oldest first, outside any walk: for
// driving a Refiner by hand, as tests do.
func NewPath(steps ...PathStep) Path {
	var n *pathNode
	for _, s := range steps {
		n = &pathNode{parent: n, idx: int32(s.Idx), taken: s.Taken}
	}
	return Path{n}
}

// Len walks the whole chain and returns the number of steps.
func (p Path) Len() int {
	count := 0
	for n := p.n; n != nil; n = n.parent {
		count++
	}
	return count
}

// RefineRequest describes a failed check that BCF may repair. Path ends
// at the failing instruction InsnIdx, which has not executed. WantLo and
// WantHi give the unsigned range the target value (the scalar register's
// value, or the variable part of a pointer register's offset) must be
// proven to lie in for the check to pass.
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
// The sweep walks only the track. Flags are shared with forked siblings,
// and setting one is idempotent, so re-sweeping after a second
// refinement is harmless.
func retractEntries(node *pathNode, anchor int) {
	for p, k := node, 1; p.parent != nil && (anchor == 0 || k < anchor); p, k = p.parent, k+1 {
		if p.entry != nil {
			p.entry.Store(true)
		}
	}
}

// Refiner is the hook through which proof-guided abstraction refinement is
// plugged into the verifier (implemented by internal/bcf). A nil Refiner
// yields the baseline in-tree behaviour: immediate rejection.
type Refiner interface {
	Refine(req *RefineRequest) (*RefineResult, error)
}

// Stats aggregates per-verification counters (Table 3). At
// ParallelPaths<=1 every field is deterministic. At ParallelPaths>1
// PeakStackDepth and a rejected load's counters depend on scheduling, as
// do all counters once a prune can lose its race (see
// Config.ParallelPaths); where none fires, as on the embedded corpus, an
// accepted load's other fields match the one-worker run.
type Stats struct {
	InsnProcessed  int
	PathsExplored  int
	StatesPruned   int
	PeakStackDepth int // largest frontier seen by a pop that walked its item
	Refinements    int // granted refinements
	RefineAttempts int // requests issued to the Refiner
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
	// Debug records a verifier log retrievable via Log().
	Debug bool
	// NoPruning disables state pruning (for ablation benchmarks).
	NoPruning bool
	// LoopInvariants supplies precomputed loop fixpoints (§7 extension).
	LoopInvariants []LoopInvariant
	// Observer, when non-nil, is invoked before every analyzed
	// instruction (differential soundness testing).
	Observer Observer
	// Sabotage deliberately weakens the verifier for oracle mutation
	// tests. Never set outside tests.
	Sabotage *Sabotage
	// Obs, when non-nil, receives the verifier's counters and the
	// per-run latency histogram. Nil costs only a nil check.
	Obs *obs.Registry
	// Trace, when non-nil, records a span per verification run and per
	// explored path, plus prune instants.
	Trace *obs.Tracer
	// ParallelPaths is the number of path-exploration workers; values
	// <= 1 mean one worker on the calling goroutine (the default), which
	// is the sequential DFS. More workers report the error the DFS hits
	// first, and a state prunes a walk only once its recorder and every
	// walk of the recorder's subtree the DFS runs earlier have finished
	// (DESIGN.md, "Parallel verification"). A walk reaching such a join
	// too early explores on: that changes the stats, spends InsnLimit,
	// and with a stateful or failing Refiner can change the verdict.
	// When > 1, the Observer (if any) must tolerate concurrent Step calls.
	ParallelPaths int
}

// DefaultInsnLimit mirrors the kernel's BPF_COMPLEXITY_LIMIT_INSNS.
const DefaultInsnLimit = 1_000_000

// Verifier analyzes one program. A Verifier is single-use: create a new
// one (or a new load session) for every Verify call.
type Verifier struct {
	prog *ebpf.Program
	cfg  Config

	// Counters are shared by every path worker, so they live as atomics;
	// Stats() materializes a snapshot.
	insnProcessed  atomic.Int64
	pathsExplored  atomic.Int64
	statesPruned   atomic.Int64
	peakFrontier   atomic.Int64
	refinements    atomic.Int64
	refineAttempts atomic.Int64

	logMu sync.Mutex
	log   []string

	// explored is the pruning table, sharded per pc so concurrent
	// subsumption checks at different instructions never contend.
	explored []exploredShard
	// prunePoints marks the pcs where explored states are recorded.
	prunePoints []bool
	idGen       atomic.Uint32

	// budgetErr is the single instruction-budget rejection. Under
	// parallel exploration the budget trips at a timing-dependent pc, so
	// the error must not carry one; it is also an identity sentinel that
	// lets workers tell a budget stop apart from a real path error.
	budgetErr *Error
	budgetHit atomic.Bool

	// best is the winning candidate error so far: the one the sequential
	// DFS would have reached first (minimal pathOrder).
	best atomic.Pointer[candidate]

	// refineMu serializes Refiner calls across path workers: the BCF
	// session speaks a strictly alternating condition/proof conversation
	// with the loader, and the refiner's bookkeeping is unsynchronized.
	refineMu sync.Mutex
}

// New prepares a verifier for prog.
func New(prog *ebpf.Program, cfg Config) *Verifier {
	if cfg.InsnLimit == 0 {
		cfg.InsnLimit = DefaultInsnLimit
	}
	return &Verifier{
		prog:        prog,
		cfg:         cfg,
		explored:    make([]exploredShard, len(prog.Insns)),
		prunePoints: computePrunePoints(prog),
		budgetErr: &Error{InsnIdx: -1, Kind: CheckOther,
			Msg: fmt.Sprintf("BPF program is too large. Processed %d insn", cfg.InsnLimit)},
	}
}

// Stats returns the counters of the last Verify run.
func (v *Verifier) Stats() Stats {
	return Stats{
		InsnProcessed:  int(v.insnProcessed.Load()),
		PathsExplored:  int(v.pathsExplored.Load()),
		StatesPruned:   int(v.statesPruned.Load()),
		PeakStackDepth: int(v.peakFrontier.Load()),
		Refinements:    int(v.refinements.Load()),
		RefineAttempts: int(v.refineAttempts.Load()),
	}
}

// Log returns the verifier log (Debug mode only).
func (v *Verifier) Log() []string {
	v.logMu.Lock()
	defer v.logMu.Unlock()
	return v.log
}

// logf appends a Debug log line. Callers guard it with cfg.Debug: the
// arguments are built (and allocated) before the call, too late to skip.
func (v *Verifier) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	v.logMu.Lock()
	v.log = append(v.log, line)
	v.logMu.Unlock()
}

func (v *Verifier) newID() uint32 { return v.idGen.Add(1) }

// chargeInsn consumes one unit of the global instruction budget. The
// counter doubles as the InsnProcessed statistic: a failed charge is
// rolled back, so the budget is a hard cap and the statistic never
// exceeds InsnLimit at any ParallelPaths.
func (v *Verifier) chargeInsn() bool {
	if v.insnProcessed.Add(1) > int64(v.cfg.InsnLimit) {
		v.insnProcessed.Add(-1)
		v.budgetHit.Store(true)
		return false
	}
	return true
}

// pathDone converts the infeasible-path sentinel into a clean path end.
func pathDone(err error) error {
	if err == errInfeasiblePath {
		return nil
	}
	return err
}

type branchItem struct {
	st    *VState
	pc    int
	node  *pathNode
	obs   any        // observer token of the forking instruction
	order *pathOrder // DFS-order coordinate (see parallel.go)
}

// Verify runs the analysis and returns nil if the program is safe.
func (v *Verifier) Verify() error {
	var t0 time.Time
	if v.cfg.Obs != nil {
		t0 = time.Now()
	}
	sp := v.cfg.Trace.Start(obs.CatVerifier, "verify")
	err := v.verify()
	sp.End()
	if r := v.cfg.Obs; r != nil {
		st := v.Stats()
		r.StageHistogram(obs.MVerifySeconds).Since(t0)
		r.Counter(obs.MInsnsProcessed).Add(int64(st.InsnProcessed))
		r.Counter(obs.MPathsExplored).Add(int64(st.PathsExplored))
		r.Counter(obs.MStatesPruned).Add(int64(st.StatesPruned))
		r.Gauge(obs.MVerifierWorkers).Set(int64(max(v.cfg.ParallelPaths, 1)))
	}
	return err
}

// verify drains the branch frontier from the entry state and reports the
// minimum-order outcome. The calling goroutine runs worker 0; only
// workers 1..N-1 get their own goroutine.
func (v *Verifier) verify() error {
	if err := v.prog.Validate(); err != nil {
		return &Error{InsnIdx: 0, Kind: CheckOther, Msg: err.Error()}
	}
	workers := max(v.cfg.ParallelPaths, 1)
	f := newFrontier(workers)
	root := &pathOrder{}
	root.open.Store(1)
	f.push(0, branchItem{st: entryState(), order: root})
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v.pathWorker(f, w)
		}(w)
	}
	v.pathWorker(f, 0)
	wg.Wait()
	if b := v.best.Load(); b != nil {
		return b.err // a real path error outranks budget exhaustion
	}
	if v.budgetHit.Load() {
		return v.budgetErr
	}
	return nil
}

// walk analyzes one path until exit, prune or error, handing the untaken
// sides of branches to push. Each pushed child is stamped with a
// pathOrder extending this walk's, so results stay in sequential DFS
// order however the frontier schedules them.
func (v *Verifier) walk(item branchItem, push func(branchItem)) error {
	st, pc, node, obsTok := item.st, item.pc, item.node, item.obs
	var slab nodeSlab
	var lastKid *pathOrder
	// fork queues the taken side of the conditional jump at node.
	fork := func(it branchItem) {
		it.node = slab.node(node.parent, int(node.idx), node.entry)
		it.node.taken = true
		it.order = &pathOrder{parent: item.order, depth: item.order.depth + 1, seq: 1}
		if lastKid != nil {
			it.order.seq, lastKid.next = lastKid.seq+1, it.order
		}
		lastKid = it.order
		it.order.open.Store(1) // the child's subtree opens under this walk's
		item.order.open.Add(1)
		push(it)
	}
	for {
		if !v.chargeInsn() {
			return v.budgetErr
		}
		if pc < 0 || pc >= len(v.prog.Insns) {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "fell off the end of the program"}
		}
		ins := v.prog.Insns[pc]
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
		var entryDead *atomic.Bool
		if !v.cfg.NoPruning && v.prunePoints[pc] {
			if v.outranked(item.order) {
				// A candidate error ordered before this path exists; the
				// sequential DFS would have stopped before walking further
				// here, so nothing this path does can matter.
				return nil
			}
			var hit bool
			hit, entryDead = v.pruned(pc, st, item.order)
			if hit {
				v.statesPruned.Add(1)
				if v.cfg.Debug {
					v.logf("%d: pruned", pc)
				}
				v.cfg.Trace.Instant(obs.CatVerifier, "prune", nil)
				return nil
			}
		}
		if v.cfg.Debug {
			v.logf("%d: %s", pc, ins.String())
		}
		node = slab.node(node, pc, entryDead)
		if v.cfg.Observer != nil {
			obsTok = v.cfg.Observer.Step(obsTok, pc, st)
		}

		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if err := v.checkALU(st, pc, ins, node); err != nil {
				return pathDone(err)
			}
			pc++

		case ebpf.ClassLD:
			if !ins.IsLoadImm64() {
				return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "unsupported ld mode"}
			}
			dst := &st.Regs[ins.Dst]
			if ins.Src == ebpf.PseudoMapFD {
				*dst = RegState{Type: ConstPtrToMap, MapIdx: int32(uint32(ins.Imm))}
				dst.zeroVar()
			} else {
				*dst = constScalar(uint64(ins.Imm))
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
			op := ins.JmpOp()
			switch op {
			case ebpf.JmpEXIT:
				if err := v.checkExit(st, pc, node); err != nil {
					return pathDone(err)
				}
				if v.cfg.Debug {
					v.logf("%d: exit, path ok", pc)
				}
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
			next, err := v.checkCondJmp(st, pc, ins, node, obsTok, fork)
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
func (v *Verifier) checkExit(st *VState, pc int, node *pathNode) error {
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
		if rerr := v.refine(st, pc, ebpf.R0, CheckRetRange, 0, 1, node, orig); rerr != nil {
			return rerr
		}
		// Refinement adopted: re-check the return range.
	}
}

// checkALU verifies one ALU instruction and applies its transfer function.
func (v *Verifier) checkALU(st *VState, pc int, ins ebpf.Instruction, node *pathNode) error {
	is32 := ins.Class() == ebpf.ClassALU
	op := ins.AluOp()
	dst := &st.Regs[ins.Dst]

	if ins.Dst == ebpf.R10 {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "frame pointer is read only"}
	}

	// Source operand.
	var src RegState
	var srcReg *RegState
	if ins.UsesSrcReg() && op != ebpf.AluNEG && op != ebpf.AluEND {
		srcReg = &st.Regs[ins.Src]
		if srcReg.Type == NotInit {
			return &Error{InsnIdx: pc, Kind: CheckOther,
				Msg: fmt.Sprintf("R%d !read_ok", ins.Src)}
		}
		src = *srcReg
	} else {
		src = constScalar(uint64(ins.Imm))
	}

	switch op {
	case ebpf.AluMOV:
		if is32 {
			if src.Type.IsPtr() {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("R%d partial copy of pointer", ins.Src)}
			}
			*dst = src
			dst.ID = 0
			dst.zext32()
		} else {
			if ins.UsesSrcReg() && srcReg.Type == Scalar {
				// Track scalar aliases so branch refinements propagate
				// (find_equal_scalars).
				if srcReg.ID == 0 {
					srcReg.ID = v.newID()
				}
				src = *srcReg
			}
			*dst = src
		}
		return nil

	case ebpf.AluNEG:
		if dst.Type != Scalar {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "R%d pointer arithmetic prohibited"}
		}
		if dst.IsConst() {
			val := dst.ConstVal()
			if is32 {
				*dst = constScalar(uint64(uint32(-int32(uint32(val)))))
			} else {
				*dst = constScalar(-val)
			}
		} else {
			dst.markUnknown()
			if is32 {
				dst.Var = tnum.Unknown.Cast(4)
				dst.UMax = math.MaxUint32
				dst.SMin, dst.SMax = 0, math.MaxUint32
				dst.sync()
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
	dstPtr, srcPtr := dst.Type.IsPtr(), src.Type.IsPtr()
	if dstPtr || srcPtr {
		if is32 {
			return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "32-bit pointer arithmetic prohibited"}
		}
		return v.adjustPtr(st, pc, ins, dst, &src)
	}

	// Scalar ALU.
	if (op == ebpf.AluDIV || op == ebpf.AluMOD) && !ins.UsesSrcReg() && ins.Imm == 0 {
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "division by zero"}
	}
	aluScalar(dst, &src, op, is32)
	if !is32 && op == ebpf.AluADD {
		v.cfg.Sabotage.collapseAdd(dst)
	}
	return nil
}

// adjustPtr implements pointer +/- scalar arithmetic
// (adjust_ptr_min_max_vals).
func (v *Verifier) adjustPtr(st *VState, pc int, ins ebpf.Instruction, dst *RegState, src *RegState) error {
	op := ins.AluOp()
	if op != ebpf.AluADD && op != ebpf.AluSUB {
		return &Error{InsnIdx: pc, Kind: CheckOther,
			Msg: fmt.Sprintf("R%d pointer arithmetic with %s operator prohibited", ins.Dst, ebpf.AluOpName(op))}
	}
	var ptr, scalar *RegState
	switch {
	case dst.Type.IsPtr() && src.Type.IsPtr():
		return &Error{InsnIdx: pc, Kind: CheckOther, Msg: "R combined pointer arithmetic prohibited"}
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
	} else if op == ebpf.AluADD {
		tmp := out
		scalarAdd(&tmp, scalar)
		tmp.sync()
		out.Var = tmp.Var
		out.UMin, out.UMax = tmp.UMin, tmp.UMax
		out.SMin, out.SMax = tmp.SMin, tmp.SMax
		out.U32Min, out.U32Max = tmp.U32Min, tmp.U32Max
		out.S32Min, out.S32Max = tmp.S32Min, tmp.S32Max
	} else {
		// Subtracting an unknown scalar from a pointer: the kernel keeps
		// the pointer but with an unknown variable offset.
		tmp := out
		scalarSub(&tmp, scalar)
		tmp.sync()
		out.Var = tmp.Var
		out.UMin, out.UMax = tmp.UMin, tmp.UMax
		out.SMin, out.SMax = tmp.SMin, tmp.SMax
		out.U32Min, out.U32Max = tmp.U32Min, tmp.U32Max
		out.S32Min, out.S32Max = tmp.S32Min, tmp.S32Max
	}
	*dst = out
	return nil
}

// applyRefinedRange adopts a proof-checked refinement of the target
// register's value (or pointer variable offset).
func applyRefinedRange(reg *RegState, lo, hi uint64) {
	reg.UMin = maxU(reg.UMin, lo)
	reg.UMax = minU(reg.UMax, hi)
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
func (v *Verifier) refine(st *VState, pc int, regno ebpf.Reg, kind CheckKind,
	wantLo, wantHi uint64, node *pathNode, orig error) error {
	if v.cfg.Refiner == nil {
		return orig
	}
	// One refinement conversation at a time: the BCF session's
	// condition/proof channel protocol is single-conversation, and the
	// refiner's own accounting is unsynchronized. Path workers queue here.
	v.refineMu.Lock()
	defer v.refineMu.Unlock()
	// Loops legitimately re-refine the same instruction on every
	// iteration (§6.3: up to 16k refinements per program), so there is no
	// per-site cap; termination is ensured by the progress check below
	// and by the global instruction budget.
	v.refineAttempts.Add(1)
	req := &RefineRequest{
		Prog:    v.prog,
		State:   st,
		Path:    Path{node},
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
		retractEntries(node, res.Anchor)
	}
	if err != nil {
		if v.cfg.Debug {
			v.logf("%d: refinement failed: %v", pc, err)
		}
		// Surface the refinement failure as the cause of the original
		// safety error: the rejection reason stays the failed check, but
		// the class of the failure (proof rejected, timeout, protocol)
		// remains reachable for errors.Is and eval bucketing.
		if oe, ok := orig.(*Error); ok && oe.Cause == nil {
			return &Error{InsnIdx: oe.InsnIdx, Kind: oe.Kind, Msg: oe.Msg, Cause: err}
		}
		return orig
	}
	if res.Pruned {
		v.refinements.Add(1)
		if v.cfg.Debug {
			v.logf("%d: path proven infeasible, pruned", pc)
		}
		return errInfeasiblePath
	}
	reg := &st.Regs[regno]
	before := *reg
	applyRefinedRange(reg, res.Lo, res.Hi)
	if before == *reg {
		// No progress; avoid looping forever.
		return orig
	}
	v.refinements.Add(1)
	if v.cfg.Debug {
		v.logf("%d: refined R%d to [%d, %d]", pc, regno, res.Lo, res.Hi)
	}
	return nil
}
