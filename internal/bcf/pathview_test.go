package bcf

import (
	"fmt"
	"slices"
	"testing"

	"bcf/internal/bcfenc"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/solver"
	"bcf/internal/verifier"
)

// refBackwardAnalysis is the index-based reference for backwardAnalysis:
// it scans a materialized oldest-first path back from the failing
// instruction and returns the index of the first tracked step.
func refBackwardAnalysis(prog *ebpf.Program, path []verifier.PathStep, target ebpf.Reg) int {
	end := len(path) - 1
	regs := uint16(1) << target
	slots := map[int16]bool{}
	need := func() bool { return regs != 0 || len(slots) > 0 }
	start := 0
	for i := end - 1; i >= 0; i-- {
		if !need() {
			start = i + 1
			break
		}
		ins := prog.Insns[path[i].Idx]
		dst := regs&(1<<ins.Dst) != 0
		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if !dst {
				continue
			}
			switch ins.AluOp() {
			case ebpf.AluMOV:
				regs &^= 1 << ins.Dst
				if ins.UsesSrcReg() {
					regs |= 1 << ins.Src
				}
			case ebpf.AluNEG, ebpf.AluEND:
			default:
				if ins.UsesSrcReg() {
					regs |= 1 << ins.Src
				}
			}
		case ebpf.ClassLD:
			if ins.IsLoadImm64() && dst {
				regs &^= 1 << ins.Dst
			}
		case ebpf.ClassLDX:
			if !dst {
				continue
			}
			regs &^= 1 << ins.Dst
			if ins.Src == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 {
				slots[ins.Off] = true
			}
		case ebpf.ClassSTX, ebpf.ClassST:
			if ins.Dst == ebpf.R10 && ins.LoadSize() == 8 && ins.Off%8 == 0 && slots[ins.Off] {
				delete(slots, ins.Off)
				if ins.Class() == ebpf.ClassSTX {
					regs |= 1 << ins.Src
				}
			}
		case ebpf.ClassJMP, ebpf.ClassJMP32:
			if ins.JmpOp() == ebpf.JmpCALL {
				regs &^= 0x3f // R0-R5
			}
		}
	}
	if need() {
		start = 0
	}
	return start
}

// memoSolver proves conditions with the in-process solver, remembering
// each answer so the loop family's repeated conditions are solved once.
type memoSolver map[string]memoProof

type memoProof struct {
	proof []byte
	err   error
}

func (s memoSolver) Prove(cond []byte) ([]byte, error) {
	m, ok := s[string(cond)]
	if !ok {
		m.proof, m.err = proveCondition(cond)
		s[string(cond)] = m
	}
	return m.proof, m.err
}

func proveCondition(cond []byte) ([]byte, error) {
	c, err := bcfenc.DecodeCondition(cond)
	if err != nil {
		return nil, err
	}
	out, err := solver.Prove(nil, c.Cond, solver.Options{})
	if err != nil {
		return nil, err
	}
	if !out.Proven {
		return nil, fmt.Errorf("counterexample")
	}
	return bcfenc.EncodeProof(out.Proof)
}

// refCheck wraps a Refiner and checks every request it sees against the
// slice-based reference: the whole path materialized oldest first and
// scanned by index.
type refCheck struct {
	t        *testing.T
	name     string
	r        *Refiner
	requests int
	longest  int
}

func (c *refCheck) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	c.requests++
	full := slices.Collect(req.Path.Backward())
	slices.Reverse(full)
	c.longest = max(c.longest, len(full))
	if n := req.Path.Len(); n != len(full) {
		c.t.Fatalf("%s: Path.Len() = %d, Backward yields %d steps", c.name, n, len(full))
	}
	start := refBackwardAnalysis(req.Prog, full, req.Reg)
	back := backwardAnalysis(req.Prog, req.Path, req.Reg)
	if len(full)-1-back != start {
		c.t.Fatalf("%s: request %d: view track starts %d steps back on a %d-step path, reference at index %d",
			c.name, c.requests, back, len(full), start)
	}
	if tail := req.Path.Tail(back + 1); !slices.Equal(tail, full[start:]) {
		c.t.Fatalf("%s: request %d: tracked steps %v, reference %v", c.name, c.requests, tail, full[start:])
	}

	recorded := len(c.r.Stats().Requests)
	res, err := c.r.Refine(req)
	if rs := c.r.Stats().Requests; len(rs) > recorded && rs[recorded].TrackLen != len(full)-1-start {
		c.t.Fatalf("%s: request %d: TrackLen %d, reference %d", c.name, c.requests, rs[recorded].TrackLen, len(full)-1-start)
	}
	if err == nil && res.Anchor != len(full)-start {
		c.t.Fatalf("%s: request %d: anchor %d, reference %d", c.name, c.requests, res.Anchor, len(full)-start)
	}
	return res, err
}

// TestPathViewMatchesReference runs every corpus program through the
// Refiner and checks that the path view yields the same track start,
// tracked steps, TrackLen and anchor as materializing the whole path.
func TestPathViewMatchesReference(t *testing.T) {
	svc := memoSolver{}
	requests, longest := 0, 0
	for _, e := range corpus.Generate() {
		c := &refCheck{t: t, name: e.Prog.Name, r: NewRefiner(svc)}
		// The verdict is the corpus tests' concern; refCheck fails the
		// test on any request that disagrees with the reference.
		_ = verifier.New(e.Prog, verifier.Config{InsnLimit: 4000, Refiner: c}).Verify()
		requests += c.requests
		longest = max(longest, c.longest)
	}
	// The loop family refines over paths thousands of steps long.
	if requests < 1000 || longest < 1000 {
		t.Fatalf("corpus made %d requests, longest path %d steps: the sweep missed long paths", requests, longest)
	}
	t.Logf("%d requests, longest path %d steps", requests, longest)
}

// TestDisableBackwardTracksWholePath pins the ablation: without backward
// analysis the track is the whole path, here the unrelated 96-insn
// preamble plus the Figure 2 pattern (109 steps before the failing
// access), and the anchor is the path start.
func TestDisableBackwardTracksWholePath(t *testing.T) {
	src := ""
	for i := 0; i < 48; i++ {
		src += fmt.Sprintf("r6 = %d\nr6 += %d\n", i, i+1)
	}
	p := sessionProg()
	p.Insns = ebpf.MustAssemble(src + `
		r1 = map[0]
		r2 = r10
		r2 += -4
		*(u32 *)(r10 -4) = 0
		call 1
		if r0 == 0 goto miss
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r3 = 0xf
		r3 -= r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	miss:
		r0 = 0
		exit
	`)
	for _, tc := range []struct {
		disable bool
		track   int
	}{{false, 9}, {true, 109}} {
		r := NewRefiner(memoSolver{})
		r.DisableBackward = tc.disable
		var anchors []int
		v := verifier.New(p, verifier.Config{Refiner: refinerFunc(func(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
			res, err := r.Refine(req)
			if err == nil {
				anchors = append(anchors, res.Anchor)
			}
			return res, err
		})})
		if err := v.Verify(); err != nil {
			t.Fatalf("DisableBackward=%v: %v", tc.disable, err)
		}
		rs := r.Stats().Requests
		if len(rs) != 1 || rs[0].TrackLen != tc.track || !slices.Equal(anchors, []int{tc.track + 1}) {
			t.Fatalf("DisableBackward=%v: requests %+v, anchors %v, want one with TrackLen %d and anchor %d",
				tc.disable, rs, anchors, tc.track, tc.track+1)
		}
	}
}

// refinerFunc adapts a function to verifier.Refiner.
type refinerFunc func(*verifier.RefineRequest) (*verifier.RefineResult, error)

func (f refinerFunc) Refine(req *verifier.RefineRequest) (*verifier.RefineResult, error) {
	return f(req)
}
