// Package sat implements a CDCL SAT solver (two-watched literals, EVSIDS
// decision heuristic, first-UIP clause learning, phase saving, geometric
// restarts) that logs binary resolution refutations.
//
// BCF's user-space prover bit-blasts refinement conditions to CNF and uses
// this solver as its complete backend: a SAT answer yields a
// counterexample to the refinement condition; an UNSAT answer yields a
// resolution proof that the in-kernel checker replays in linear time
// (§4 Workload Delegation, §5 Proof Check).
//
// The solver's state is addressed by index and holds no pointer per
// clause. Every clause's literals sit in one literal slice and its header
// {start, n, id} in one header slice; watchers and per-variable reasons
// name a clause by its header index, so both slices may move as they grow
// and the collector never scans them. Watch lists live in a slice indexed
// by literal (2v for +v, 2v+1 for -v); AddClause dedupes against a
// per-literal stamp array; conflict analysis and level-0 elimination mark
// variables in per-variable arrays they reuse. None of this changes a
// decision: the same clauses in the same order give the same model or the
// same refutation, step for step.
//
// A Solver is reusable: Reset empties it for a new problem and keeps the
// arrays it has grown, so a prover that solves one condition after
// another stops allocating per clause once its arrays fit. New is a new
// Solver followed by Reset.
package sat

import (
	"fmt"
	"slices"

	"bcf/internal/bcferr"
)

// Lit is a literal in DIMACS convention: +v asserts variable v, -v its
// negation. Variables are numbered from 1.
type Lit int32

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// index is the literal's slot in per-literal arrays: 2v for +v, 2v+1 for
// -v.
func (l Lit) index() int {
	if l < 0 {
		return 2*int(-l) + 1
	}
	return 2 * int(l)
}

// ResStep is one binary resolution: clause A and clause B resolved on
// Pivot (A must contain +Pivot or -Pivot, B the complement). Each step
// appends a new derived clause.
type ResStep struct {
	A, B  int32 // clause ids (inputs first, then derived in order)
	Pivot int32 // pivot variable
}

// Proof is a resolution refutation: derived clause i has id NumInputs+i;
// the final derived clause must be empty.
type Proof struct {
	NumInputs int
	Steps     []ResStep
}

// Result of Solve.
type Result struct {
	SAT   bool
	Model []bool // indexed by variable (1-based; index 0 unused) when SAT
	Proof *Proof // refutation when UNSAT and proof logging is enabled
}

const (
	valUnassigned int8 = 0
	valTrue       int8 = 1
	valFalse      int8 = -1
)

// clause is a header into Solver.lits: the clause's literals are
// lits[start : start+n].
type clause struct {
	start, n int32
	id       int32 // proof clause id
}

// The bit-blaster's CNF has at most about two clauses per variable
// (gates with constant inputs fold away, and input bits have none) and
// two and a half literals per clause; Reset sizes the clause storage
// for that, leaving room for learned clauses, so a bit-blasted
// condition's clauses fit in one array each.
const (
	clausesPerVar = 2
	litsPerClause = 3
)

// noClause is the reason of a decision or an unassigned variable, and
// propagate's answer when nothing conflicts.
const noClause int32 = -1

type watcher struct {
	c       int32 // index into Solver.clauses
	blocker Lit
}

// Solver holds the CDCL state. Create with New (or Reset a Solver, the
// zero value included), add clauses, then Solve.
type Solver struct {
	nVars    int
	watches  [][]watcher // indexed by Lit.index; Solve watches the inputs
	assign   []int8      // per variable
	ints     []int32     // level, pos, heapIdx and reason, back to back
	level    []int32     // decision level per variable
	pos      []int32     // trail position per variable
	reason   []int32     // per variable: the implying clause, or noClause
	trail    []Lit
	trailLim []int32
	qhead    int
	// watchInputs' watcher count per literal, and the array it cuts the
	// input watch lists from.
	watchN   []int32
	watchAll []watcher

	activity []float64
	varInc   float64
	heapIdx  []int32 // position in heap, -1 if absent
	heap     []int32 // max-heap of variables by activity
	phase    []bool
	bools    []bool // phase, seen and lvl0, back to back
	model    []bool // the last SAT answer's model

	// Clause storage: headers (inputs first, then learned clauses) over
	// one literal slice.
	clauses []clause
	lits    []Lit

	litStamp []uint32 // per literal: the AddClause call that last saw it
	stamp    uint32
	seen     []bool // per variable: marked by the running analyze
	learnt   []Lit  // analyze's reused clause buffer
	// Level-0 literals waiting to be resolved out of a derived clause: a
	// mark per variable, their count, and the highest trail position.
	lvl0    []bool
	lvl0N   int
	lvl0Top int32

	logProof   bool
	proof      Proof
	nextID     int32
	emptySeen  bool
	conflCount int64

	// MaxConflicts bounds the search; 0 means unlimited. Exceeding it
	// makes Solve return an error (the paper's solver-timeout case).
	MaxConflicts int64
	// Interrupt, when non-nil, is polled periodically during the search;
	// a non-nil return aborts Solve with a solver-timeout error. Wire it
	// to context.Context.Err to give the search a deadline.
	Interrupt func() error
}

// New returns a solver over nVars variables. If logProof is set, an UNSAT
// answer carries a resolution refutation.
func New(nVars int, logProof bool) *Solver {
	s := new(Solver)
	s.Reset(nVars, logProof)
	return s
}

// Reset empties the solver for a new problem over nVars variables and
// leaves it in the state New returns, reusing every array that has room.
// A Result the solver returned, its Model and Proof included, is valid
// until the next Reset.
func (s *Solver) Reset(nVars int, logProof bool) {
	n := nVars + 1
	s.nVars = nVars
	clear(s.watches) // drop the lists the last search grew on their own
	s.watches = append(s.watches[:0], make([][]watcher, 2*n)...)
	s.assign = append(s.assign[:0], make([]int8, n)...)
	s.ints = append(s.ints[:0], make([]int32, 4*n)...)
	s.level = s.ints[:n:n]
	s.pos = s.ints[n : 2*n : 2*n]
	s.heapIdx = s.ints[2*n : 3*n : 3*n]
	s.reason = s.ints[3*n:]
	s.trail = slices.Grow(s.trail[:0], nVars)
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.activity = append(s.activity[:0], make([]float64, n)...)
	s.varInc = 1.0
	s.heap = slices.Grow(s.heap[:0], nVars)
	s.bools = append(s.bools[:0], make([]bool, 3*n)...)
	s.phase = s.bools[:n:n]
	s.seen = s.bools[n : 2*n : 2*n]
	s.lvl0 = s.bools[2*n:]
	s.clauses = slices.Grow(s.clauses[:0], clausesPerVar*nVars)
	s.lits = slices.Grow(s.lits[:0], litsPerClause*clausesPerVar*nVars)
	s.litStamp = append(s.litStamp[:0], make([]uint32, 2*n)...)
	s.stamp = 0
	s.learnt = s.learnt[:0]
	s.lvl0N, s.lvl0Top = 0, 0
	s.logProof = logProof
	s.proof = Proof{Steps: s.proof.Steps[:0]}
	s.nextID = 0
	s.emptySeen = false
	s.conflCount = 0
	s.MaxConflicts = 0
	s.Interrupt = nil
	for v := 1; v <= nVars; v++ {
		s.heapIdx[v] = -1
		s.reason[v] = noClause
		s.heapInsert(int32(v))
	}
}

func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// AddClause adds an input clause. Duplicate literals are removed; a
// tautological clause is silently dropped but still consumes a proof id
// so the caller's clause numbering stays aligned.
func (s *Solver) AddClause(lits ...Lit) error {
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			return fmt.Errorf("sat: literal %d out of range", l)
		}
	}
	id := s.nextID
	s.nextID++
	s.proof.NumInputs = int(s.nextID)
	s.stamp++
	if s.stamp == 0 {
		clear(s.litStamp)
		s.stamp = 1
	}
	start := len(s.lits)
	for _, l := range lits {
		if s.litStamp[l.Neg().index()] == s.stamp {
			s.lits = s.lits[:start]
			return nil // tautology: always satisfied
		}
		if s.litStamp[l.index()] != s.stamp {
			s.litStamp[l.index()] = s.stamp
			s.lits = append(s.lits, l)
		}
	}
	if len(s.lits) == start {
		s.emptySeen = true
		return nil
	}
	// A unit input clause is asserted at level 0 by Solve; longer ones
	// are watched there.
	s.clauses = append(s.clauses, clause{start: int32(start), n: int32(len(s.lits) - start), id: id})
	return nil
}

// learn stores a learned clause, copying its literals into the literal
// slice, and returns its header index.
func (s *Solver) learn(lits []Lit, id int32) int32 {
	start := len(s.lits)
	s.lits = append(s.lits, lits...)
	s.clauses = append(s.clauses, clause{start: int32(start), n: int32(len(lits)), id: id})
	return int32(len(s.clauses) - 1)
}

// litsOf returns clause ci's literals, in place: propagate reorders them.
func (s *Solver) litsOf(ci int32) []Lit {
	c := s.clauses[ci]
	return s.lits[c.start : c.start+c.n : c.start+c.n]
}

// watchInputs builds the input clauses' watch lists in one array, which
// the next problem reuses. Each list gets its count of watchers, appended
// in clause order, so it holds what watching each clause as it arrived
// would have put there, in the same order. It has room for as many again,
// so the watches the search moves onto it and learns seldom outgrow it
// (a list that does moves to an array of its own).
func (s *Solver) watchInputs() {
	s.watchN = append(s.watchN[:0], make([]int32, len(s.watches))...)
	counts := s.watchN
	total := 0
	for _, c := range s.clauses {
		if c.n >= 2 {
			counts[s.lits[c.start].Neg().index()]++
			counts[s.lits[c.start+1].Neg().index()]++
			total += 2
		}
	}
	s.watchAll = slices.Grow(s.watchAll[:0], 2*total)
	all := s.watchAll[:2*total]
	off := 0
	for i, n := range counts {
		end := off + 2*int(n)
		s.watches[i] = all[off:off:end]
		off = end
	}
	for ci, c := range s.clauses {
		if c.n >= 2 {
			s.watch(int32(ci))
		}
	}
}

func (s *Solver) watch(ci int32) {
	lits := s.litsOf(ci)
	w0, w1 := lits[0].Neg().index(), lits[1].Neg().index()
	s.watches[w0] = append(s.watches[w0], watcher{c: ci, blocker: lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c: ci, blocker: lits[0]})
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.value(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := l.Var()
	if l > 0 {
		s.assign[v] = valTrue
	} else {
		s.assign[v] = valFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.pos[v] = int32(len(s.trail))
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or
// noClause.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p.index()]
		kept := ws[:0]
		confl := noClause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noClause {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.value(w.blocker) == valTrue {
				kept = append(kept, w)
				continue
			}
			c, lits := w.c, s.litsOf(w.c)
			// Normalize: false literal at position 1.
			if lits[0] == p.Neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == valTrue {
				kept = append(kept, watcher{c: c, blocker: lits[0]})
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != valFalse {
					lits[1], lits[k] = lits[k], lits[1]
					wi := lits[1].Neg().index()
					s.watches[wi] = append(s.watches[wi], watcher{c: c, blocker: lits[0]})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, w)
			if s.value(lits[0]) == valFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.enqueue(lits[0], c)
			}
		}
		s.watches[p.index()] = kept
		if confl != noClause {
			return confl
		}
	}
	return noClause
}

// ---- EVSIDS variable order (binary max-heap) ----

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int32) {
	if s.heapIdx[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapIdx[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.heapLess(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.heapLess(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapIdx[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapIdx[last] = 0
		s.heapDown(0)
	}
	return v
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapIdx[v] >= 0 {
		s.heapUp(int(s.heapIdx[v]))
	}
}

func (s *Solver) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return 0
}

// backtrack undoes assignments above the given level.
func (s *Solver) backtrack(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == valTrue
		s.assign[v] = valUnassigned
		s.reason[v] = noClause
		s.heapInsert(int32(v))
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// logResolve records one binary resolution and returns the new clause id.
func (s *Solver) logResolve(a, b int32, pivot int) int32 {
	if !s.logProof {
		return -1
	}
	s.proof.Steps = append(s.proof.Steps, ResStep{A: a, B: b, Pivot: int32(pivot)})
	id := s.nextID
	s.nextID++
	return id
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (in a buffer the next analyze reuses), the backjump level, and
// the learned clause's proof id. The resolution chain logged along the
// way derives exactly the learned clause: level-0 literals dropped from
// the clause are eliminated from the resolvent by resolving against
// their unit-implication reasons.
func (s *Solver) analyze(confl int32) ([]Lit, int32, int32) {
	learnt := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	accID := s.clauses[confl].id
	c := confl
	for {
		for _, q := range s.litsOf(c) {
			if q == p {
				continue
			}
			v := q.Var()
			if s.level[v] == 0 {
				if s.logProof {
					s.markLevel0(v)
				}
				continue
			}
			if s.seen[v] {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Pick the next literal on the trail to resolve.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		c = s.reason[p.Var()]
		accID = s.logResolve(accID, s.clauses[c].id, p.Var())
	}
	// Every current-level mark was cleared as it was resolved; the rest
	// are the learned clause's.
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	s.learnt = learnt
	// Eliminate dropped level-0 literals from the resolvent so the proof
	// derives the learned clause exactly.
	if s.logProof {
		accID = s.eliminateLevel0(accID)
	}

	// Compute backjump level: the second-highest level in the clause.
	blevel := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		blevel = s.level[learnt[1].Var()]
	}
	return learnt, blevel, accID
}

// Solve runs the CDCL search.
func (s *Solver) Solve() (Result, error) {
	if s.emptySeen {
		return Result{SAT: false, Proof: s.proofOut()}, nil
	}
	s.watchInputs()
	// Assert unit input clauses at level 0. Every stored clause is an
	// input until the search learns one.
	for ci, c := range s.clauses {
		if c.n != 1 {
			continue
		}
		if l := s.lits[c.start]; !s.enqueue(l, int32(ci)) {
			// Conflicting units: resolve with the clause that implied the
			// opposite assignment to derive the empty clause.
			if other := s.reason[l.Var()]; other != noClause {
				s.logResolve(c.id, s.clauses[other].id, l.Var())
			}
			return Result{SAT: false, Proof: s.proofOut()}, nil
		}
	}
	if confl := s.propagate(); confl != noClause {
		s.emptyFromLevel0Conflict(confl)
		return Result{SAT: false, Proof: s.proofOut()}, nil
	}

	conflictsSinceRestart := int64(0)
	restartLimit := int64(100)
	steps := int64(0)
	for {
		steps++
		if s.Interrupt != nil && steps&255 == 0 {
			if err := s.Interrupt(); err != nil {
				return Result{}, bcferr.Wrap(bcferr.ClassSolverTimeout,
					fmt.Errorf("sat: interrupted: %w", err))
			}
		}
		confl := s.propagate()
		if confl != noClause {
			s.conflCount++
			conflictsSinceRestart++
			if s.MaxConflicts > 0 && s.conflCount > s.MaxConflicts {
				return Result{}, bcferr.New(bcferr.ClassSolverTimeout,
					"sat: conflict budget exhausted (%d)", s.MaxConflicts)
			}
			if s.decisionLevel() == 0 {
				s.emptyFromLevel0Conflict(confl)
				return Result{SAT: false, Proof: s.proofOut()}, nil
			}
			learnt, blevel, id := s.analyze(confl)
			s.backtrack(blevel)
			lc := s.learn(learnt, id)
			if len(learnt) >= 2 {
				s.watch(lc)
			}
			if !s.enqueue(learnt[0], lc) {
				// Learned unit contradicts level-0: resolve to empty.
				if s.decisionLevel() == 0 {
					r := s.reason[learnt[0].Var()]
					if r != noClause && s.logProof {
						s.logResolve(id, s.clauses[r].id, learnt[0].Var())
					}
					return Result{SAT: false, Proof: s.proofOut()}, nil
				}
			}
			s.varInc /= 0.95
			if conflictsSinceRestart > restartLimit {
				conflictsSinceRestart = 0
				restartLimit = restartLimit * 11 / 10
				s.backtrack(0)
			}
			continue
		}
		v := s.pickBranchVar()
		if v == 0 {
			// All variables assigned: SAT.
			s.model = append(s.model[:0], make([]bool, s.nVars+1)...)
			for i := 1; i <= s.nVars; i++ {
				s.model[i] = s.assign[i] == valTrue
			}
			return Result{SAT: true, Model: s.model}, nil
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		l := Lit(v)
		if !s.phase[v] {
			l = -l
		}
		s.enqueue(l, noClause)
	}
}

// emptyFromLevel0Conflict derives the empty clause from a conflict at
// decision level 0 by resolving with the unit-implication reasons.
func (s *Solver) emptyFromLevel0Conflict(confl int32) int32 {
	if !s.logProof {
		return -1
	}
	for _, l := range s.litsOf(confl) {
		s.markLevel0(l.Var())
	}
	return s.eliminateLevel0(s.clauses[confl].id)
}

func (s *Solver) proofOut() *Proof {
	if !s.logProof {
		return nil
	}
	return &s.proof
}

// markLevel0 queues a falsified level-0 literal's variable for
// eliminateLevel0.
func (s *Solver) markLevel0(v int) {
	if s.lvl0[v] {
		return
	}
	s.lvl0[v] = true
	s.lvl0N++
	s.lvl0Top = max(s.lvl0Top, s.pos[v])
}

// eliminateLevel0 resolves the marked level-0 falsified literals out of
// the accumulated clause. It walks the trail downwards from the highest
// marked position, so it always picks the latest-assigned literal and a
// reason's antecedents (assigned strictly earlier, so marked below the
// walk) never re-introduce an already-eliminated literal. Returns the
// final derived clause id and leaves no mark behind.
func (s *Solver) eliminateLevel0(accID int32) int32 {
	for i := s.lvl0Top; s.lvl0N > 0; i-- {
		v := s.trail[i].Var()
		if !s.lvl0[v] {
			continue
		}
		s.lvl0[v] = false
		s.lvl0N--
		r := s.reason[v]
		if r == noClause {
			continue
		}
		accID = s.logResolve(accID, s.clauses[r].id, v)
		for _, q := range s.litsOf(r) {
			if w := q.Var(); w != v {
				s.markLevel0(w)
			}
		}
	}
	s.lvl0Top = 0
	return accID
}
