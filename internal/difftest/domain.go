package difftest

import (
	"fmt"
	"math/rand"

	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// ObsNode is one recorded abstract state: the registers the verifier held
// on entry to pc on one analysis path. Children are the observations that
// followed it (more than one after a branch fork, and possibly with equal
// pcs when both branch edges land on the same instruction).
type ObsNode struct {
	PC       int
	Regs     [ebpf.MaxReg]verifier.RegState
	Children []*ObsNode
}

// TreeObserver implements verifier.Observer by materializing the analysis
// tree. The verifier threads the parent token through branch forks, so
// the tree mirrors its DFS exactly.
type TreeObserver struct {
	Roots []*ObsNode
	Nodes int
}

// Observe records one instruction event and returns the new node as the
// token for the instruction that follows it.
func (o *TreeObserver) Observe(parent any, ev verifier.Event) any {
	if ev.Kind != verifier.EventInsn {
		return nil
	}
	n := &ObsNode{PC: ev.PC, Regs: ev.State.Regs}
	o.Nodes++
	if parent == nil {
		o.Roots = append(o.Roots, n)
	} else {
		p := parent.(*ObsNode)
		p.Children = append(p.Children, n)
	}
	return n
}

// TraceStep is one step of a concrete execution: the pc about to execute
// and the full register file on entry.
type TraceStep struct {
	PC   int
	Regs [ebpf.MaxReg]uint64
}

// DomainViolation pinpoints a soundness failure of the abstract domains:
// the exact trace step, instruction, register and domain where a concrete
// value escaped the verifier's abstraction — or a fault the interpreter
// hit in a program the verifier accepted.
type DomainViolation struct {
	RunSeed  int64 // interpreter seed of the failing run
	Step     int   // index into the concrete trace
	PC       int
	Reg      int
	Domain   string // which domain excluded the value ("tnum", "u64", "s64", "u32" or "s32")
	Concrete uint64
	Abstract string // abstract register state at the point of violation
	Fault    *ebpf.Fault
	Kind     string // "containment", "no-path", "fault"
}

func (v *DomainViolation) String() string {
	switch v.Kind {
	case "fault":
		return fmt.Sprintf("domain oracle (run seed %d): accepted program faulted: %v", v.RunSeed, v.Fault)
	case "no-path":
		return fmt.Sprintf("domain oracle (run seed %d): concrete execution reached pc %d at step %d but no explored abstract path covers it",
			v.RunSeed, v.PC, v.Step)
	default:
		return fmt.Sprintf("domain oracle (run seed %d): at step %d insn %d, concrete r%d=%#x escapes the %s domain of every matching abstract path (last candidate: %s)",
			v.RunSeed, v.Step, v.PC, v.Reg, v.Concrete, v.Domain, v.Abstract)
	}
}

// Tee fans every event out to two observers, threading a
// token pair so each sees its own consistent analysis tree. It lets a
// caller-supplied observer (e.g. the fuzz campaign's coverage bitmap)
// ride along with an oracle's internal TreeObserver.
func Tee(a, b verifier.Observer) verifier.Observer { return &teeObserver{a: a, b: b} }

type teeObserver struct{ a, b verifier.Observer }

type teeToken struct{ a, b any }

func (t *teeObserver) Observe(parent any, ev verifier.Event) any {
	var pa, pb any
	if parent != nil {
		p := parent.(*teeToken)
		pa, pb = p.a, p.b
	}
	a, b := t.a.Observe(pa, ev), t.b.Observe(pb, ev)
	if ev.Kind != verifier.EventInsn {
		return nil
	}
	return &teeToken{a: a, b: b}
}

// CheckDomain runs the domain-soundness oracle on one program: verify
// with pruning disabled and an observer attached, then interpret the
// program on `inputs` randomized (ctx, maps) samples and require every
// concrete register value to be admitted by all five abstract domains at
// the corresponding point of some explored path. Returns whether the
// verifier accepted the program (rejected programs are vacuously sound)
// and the first violation found, if any.
//
// A caller-supplied cfg.Observer is not displaced: it is teed with the
// oracle's internal TreeObserver and sees the same analysis tree.
func CheckDomain(p *ebpf.Program, cfg verifier.Config, inputs int, seed int64) (accepted bool, viol *DomainViolation) {
	obs := &TreeObserver{}
	cfg.NoPruning = true
	cfg.Refiner = nil
	if cfg.Observer != nil {
		cfg.Observer = Tee(cfg.Observer, obs)
	} else {
		cfg.Observer = obs
	}
	if cfg.InsnLimit == 0 {
		cfg.InsnLimit = 200_000
	}
	v := verifier.New(p, cfg)
	if v.Verify() != nil {
		return false, nil
	}
	for k := 0; k < inputs; k++ {
		runSeed := seed*1_000_003 + int64(k)
		if viol := runOne(p, obs.Roots, runSeed); viol != nil {
			return true, viol
		}
	}
	return true, nil
}

// runOne interprets p once under runSeed and matches the concrete trace
// against the observation tree.
func runOne(p *ebpf.Program, roots []*ObsNode, runSeed int64) *DomainViolation {
	in := ebpf.NewInterp(p, runSeed)
	in.RandomizeMaps()
	var trace []TraceStep
	in.Trace = func(pc int, regs *[ebpf.MaxReg]uint64) {
		trace = append(trace, TraceStep{PC: pc, Regs: *regs})
	}
	ctxRng := rand.New(rand.NewSource(runSeed ^ 0x5deece66d))
	_, fault := in.Run(ebpf.RandomCtx(ctxRng, p.Type))
	if fault != nil {
		return &DomainViolation{RunSeed: runSeed, Kind: "fault", Fault: fault, PC: fault.PC}
	}
	if viol := matchTrace(roots, trace); viol != nil {
		viol.RunSeed = runSeed
		return viol
	}
	return nil
}

// matchTrace walks the concrete trace through the observation tree. At
// every step it keeps the set of abstract nodes the execution could be
// at: same pc and every Scalar register admitting the concrete value. A
// sound verifier always keeps the node chain of the path whose branch
// outcomes the concrete run took, so an empty candidate set is a
// violation. The failure recorded for the last surviving candidate names
// the register and domain.
func matchTrace(roots []*ObsNode, trace []TraceStep) *DomainViolation {
	if len(trace) == 0 {
		return nil
	}
	var cands []*ObsNode
	for _, r := range roots {
		if r.PC == trace[0].PC {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return &DomainViolation{Kind: "no-path", Step: 0, PC: trace[0].PC}
	}
	for i := range trace {
		var surv []*ObsNode
		var fail *DomainViolation
		for _, c := range cands {
			if v := containViolation(c, &trace[i]); v == nil {
				surv = append(surv, c)
			} else {
				fail = v
			}
		}
		if len(surv) == 0 {
			fail.Step = i
			return fail
		}
		if i+1 == len(trace) {
			return nil
		}
		var next []*ObsNode
		for _, c := range surv {
			for _, ch := range c.Children {
				if ch.PC == trace[i+1].PC {
					next = append(next, ch)
				}
			}
		}
		if len(next) == 0 {
			return &DomainViolation{Kind: "no-path", Step: i + 1, PC: trace[i+1].PC}
		}
		cands = next
	}
	return nil
}

// admits reports whether concrete value v is admitted by the scalar
// abstraction r. When it is not, domain names the first violated domain
// ("tnum", "u64", "s64", "u32" or "s32"), letting soundness reports
// pinpoint the broken transfer function.
func admits(r *verifier.RegState, v uint64) (ok bool, domain string) {
	if !r.Var.Contains(v) {
		return false, "tnum"
	}
	if v < r.UMin || v > r.UMax {
		return false, "u64"
	}
	if int64(v) < r.SMin || int64(v) > r.SMax {
		return false, "s64"
	}
	v32 := uint32(v)
	if v32 < r.U32Min || v32 > r.U32Max {
		return false, "u32"
	}
	if int32(v32) < r.S32Min || int32(v32) > r.S32Max {
		return false, "s32"
	}
	return true, ""
}

// containViolation checks one candidate node against one trace step,
// returning the first register/domain the concrete state escapes. Only
// Scalar registers are compared: pointers live at synthetic addresses
// concretely, and NotInit registers carry garbage by design.
func containViolation(c *ObsNode, st *TraceStep) *DomainViolation {
	for r := 0; r < ebpf.MaxReg; r++ {
		ar := &c.Regs[r]
		if ar.Type != verifier.Scalar {
			continue
		}
		if ok, domain := admits(ar, st.Regs[r]); !ok {
			return &DomainViolation{
				Kind: "containment", PC: c.PC, Reg: r, Domain: domain,
				Concrete: st.Regs[r], Abstract: ar.String(),
			}
		}
	}
	return nil
}
