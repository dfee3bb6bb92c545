package sat

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"bcf/internal/bcferr"
)

// bruteForce decides satisfiability by enumeration (nVars <= 20).
func bruteForce(nVars int, clauses [][]Lit) (bool, []bool) {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				v := l.Var()
				val := m&(1<<(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			model := make([]bool, nVars+1)
			for v := 1; v <= nVars; v++ {
				model[v] = m&(1<<(v-1)) != 0
			}
			return true, model
		}
	}
	return false, nil
}

// checkModel verifies that a model satisfies every clause.
func checkModel(t *testing.T, clauses [][]Lit, model []bool) {
	t.Helper()
	for i, c := range clauses {
		sat := false
		for _, l := range c {
			if (l > 0) == model[l.Var()] {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model does not satisfy clause %d: %v", i, c)
		}
	}
}

// replayProof independently replays a resolution refutation against the
// input clauses; it fails the test on any invalid step or if the final
// derived clause is not empty.
func replayProof(t *testing.T, inputs [][]Lit, p *Proof) {
	t.Helper()
	if p == nil {
		t.Fatal("no proof produced")
	}
	derived := make([][]Lit, 0, len(inputs)+len(p.Steps))
	derived = append(derived, inputs...)
	get := func(id int32) []Lit {
		if int(id) >= len(derived) {
			t.Fatalf("proof references clause %d before derivation", id)
		}
		return derived[id]
	}
	norm := func(c []Lit) []Lit {
		seen := map[Lit]bool{}
		var out []Lit
		for _, l := range c {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for si, step := range p.Steps {
		a, b := get(step.A), get(step.B)
		pos, neg := false, false
		var res []Lit
		for _, l := range a {
			if l.Var() == int(step.Pivot) {
				if l > 0 {
					pos = true
				} else {
					neg = true
				}
				continue
			}
			res = append(res, l)
		}
		foundInB := false
		for _, l := range b {
			if l.Var() == int(step.Pivot) {
				foundInB = true
				if l > 0 {
					pos = true
				} else {
					neg = true
				}
				continue
			}
			res = append(res, l)
		}
		if !pos || !neg || !foundInB {
			t.Fatalf("step %d: invalid resolution on %d: %v | %v", si, step.Pivot, a, b)
		}
		derived = append(derived, norm(res))
	}
	if len(p.Steps) == 0 {
		// Immediate empty input clause.
		for _, c := range inputs {
			if len(c) == 0 {
				return
			}
		}
		t.Fatal("no steps and no empty input clause")
	}
	last := derived[len(derived)-1]
	if len(last) != 0 {
		t.Fatalf("final derived clause not empty: %v", last)
	}
}

// solve adds clauses to a fresh solver and runs it, returning the result
// plus the recorded input clause list (post tautology-filtering order is
// identical to insertion order for ids).
func solve(t *testing.T, nVars int, clauses [][]Lit) (Result, [][]Lit) {
	t.Helper()
	return solveLog(t, nVars, clauses, true), clauses
}

func solveLog(t *testing.T, nVars int, clauses [][]Lit, logProof bool) Result {
	t.Helper()
	s := New(nVars, logProof)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// solveChecked solves the clauses with proof logging on and off. Both
// runs must give the same answer; each model must satisfy every clause,
// and the logged refutation must replay.
func solveChecked(t *testing.T, nVars int, clauses [][]Lit) bool {
	t.Helper()
	logged := solveLog(t, nVars, clauses, true)
	plain := solveLog(t, nVars, clauses, false)
	if logged.SAT != plain.SAT {
		t.Fatalf("proof logging changed the answer: logged SAT=%v, unlogged SAT=%v, clauses=%v",
			logged.SAT, plain.SAT, clauses)
	}
	if logged.SAT {
		checkModel(t, clauses, logged.Model)
		checkModel(t, clauses, plain.Model)
	} else {
		replayProof(t, clauses, logged.Proof)
		if plain.Proof != nil {
			t.Fatal("proof logged with logProof=false")
		}
	}
	return logged.SAT
}

func TestTrivialSAT(t *testing.T) {
	res, _ := solve(t, 2, [][]Lit{{1, 2}, {-1, 2}})
	if !res.SAT {
		t.Fatal("expected SAT")
	}
	if !res.Model[2] {
		t.Fatal("v2 must be true")
	}
}

func TestTrivialUNSAT(t *testing.T) {
	clauses := [][]Lit{{1}, {-1}}
	res, in := solve(t, 1, clauses)
	if res.SAT {
		t.Fatal("expected UNSAT")
	}
	replayProof(t, in, res.Proof)
}

func TestEmptyClause(t *testing.T) {
	res, in := solve(t, 1, [][]Lit{{}})
	if res.SAT {
		t.Fatal("expected UNSAT")
	}
	replayProof(t, in, res.Proof)
}

func TestUnitPropagationChainUNSAT(t *testing.T) {
	clauses := [][]Lit{{1}, {-1, 2}, {-2, 3}, {-3, -1}}
	res, in := solve(t, 3, clauses)
	if res.SAT {
		t.Fatal("expected UNSAT")
	}
	replayProof(t, in, res.Proof)
}

func TestTautologyIgnored(t *testing.T) {
	res, _ := solve(t, 2, [][]Lit{{1, -1}, {2}})
	if !res.SAT || !res.Model[2] {
		t.Fatalf("tautology handling broken: %+v", res)
	}
}

// pigeonhole generates PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
func pigeonhole(n int) (int, [][]Lit) {
	v := func(p, h int) Lit { return Lit(p*n + h + 1) }
	var clauses [][]Lit
	for p := 0; p <= n; p++ {
		var c []Lit
		for h := 0; h < n; h++ {
			c = append(c, v(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				clauses = append(clauses, []Lit{-v(p1, h), -v(p2, h)})
			}
		}
	}
	return (n + 1) * n, clauses
}

func TestPigeonholeUNSAT(t *testing.T) {
	for n := 2; n <= 5; n++ {
		nv, clauses := pigeonhole(n)
		res, in := solve(t, nv, clauses)
		if res.SAT {
			t.Fatalf("PHP(%d) must be UNSAT", n)
		}
		replayProof(t, in, res.Proof)
	}
}

func TestRandom3SATDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 300; iter++ {
		n := 4 + rng.Intn(9) // 4..12 vars
		nClauses := 2 + rng.Intn(6*n)
		clauses := make([][]Lit, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			width := 1 + rng.Intn(3)
			c := make([]Lit, 0, width)
			for j := 0; j < width; j++ {
				l := Lit(1 + rng.Intn(n))
				if rng.Intn(2) == 0 {
					l = -l
				}
				c = append(c, l)
			}
			clauses = append(clauses, c)
		}
		wantSAT, _ := bruteForce(n, clauses)
		if got := solveChecked(t, n, clauses); got != wantSAT {
			t.Fatalf("iter %d: solver=%v brute=%v clauses=%v", iter, got, wantSAT, clauses)
		}
	}
}

// php7Solver is a solver loaded with PHP(7), which needs far more than
// one conflict and far more than 256 search steps to refute.
func php7Solver(t *testing.T, logProof bool) *Solver {
	t.Helper()
	nv, clauses := pigeonhole(7)
	s := New(nv, logProof)
	for _, c := range clauses {
		if err := s.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestConflictBudget(t *testing.T) {
	for _, logProof := range []bool{false, true} {
		s := php7Solver(t, logProof)
		s.MaxConflicts = 1
		_, err := s.Solve()
		if c := bcferr.ClassOf(err); c != bcferr.ClassSolverTimeout {
			t.Fatalf("logProof=%v: Solve with one conflict of budget returned %v (class %s), want a solver timeout",
				logProof, err, c)
		}
	}
}

func TestInterruptAbortsSolve(t *testing.T) {
	stop := errors.New("deadline passed")
	for _, logProof := range []bool{false, true} {
		s := php7Solver(t, logProof)
		polls := 0
		s.Interrupt = func() error {
			polls++
			return stop
		}
		_, err := s.Solve()
		if c := bcferr.ClassOf(err); c != bcferr.ClassSolverTimeout {
			t.Fatalf("logProof=%v: interrupted Solve returned %v (class %s), want a solver timeout",
				logProof, err, c)
		}
		if !errors.Is(err, stop) {
			t.Fatalf("logProof=%v: interrupted Solve lost the interrupt's error: %v", logProof, err)
		}
		if polls != 1 {
			t.Fatalf("logProof=%v: Interrupt polled %d times, want 1", logProof, polls)
		}
	}
}

func TestLargerRandomInstances(t *testing.T) {
	// No brute-force reference; just check models and proofs internally.
	rng := rand.New(rand.NewSource(999))
	for iter := 0; iter < 20; iter++ {
		n := 40 + rng.Intn(40)
		nClauses := int(float64(n) * (3.5 + rng.Float64()))
		clauses := make([][]Lit, 0, nClauses)
		for i := 0; i < nClauses; i++ {
			c := make([]Lit, 0, 3)
			for j := 0; j < 3; j++ {
				l := Lit(1 + rng.Intn(n))
				if rng.Intn(2) == 0 {
					l = -l
				}
				c = append(c, l)
			}
			clauses = append(clauses, c)
		}
		solveChecked(t, n, clauses)
	}
}

// decodeCNF reads a CNF from fuzz bytes: the first byte picks 1..12
// variables, a zero byte ends a clause, and any other byte b is the
// literal of variable 1+(b&0x7f)%nVars, negated when b&0x80 is set.
func decodeCNF(data []byte) (int, [][]Lit) {
	if len(data) == 0 {
		return 0, nil
	}
	nVars := 1 + int(data[0])%12
	var clauses [][]Lit
	var c []Lit
	for _, b := range data[1:] {
		if b == 0 {
			clauses = append(clauses, c)
			c = nil
			continue
		}
		l := Lit(1 + int(b&0x7f)%nVars)
		if b&0x80 != 0 {
			l = -l
		}
		c = append(c, l)
	}
	if c != nil {
		clauses = append(clauses, c)
	}
	return nVars, clauses
}

func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0, 0x81, 2})                   // SAT
	f.Add([]byte{1, 1, 0, 0x81})                         // UNSAT units
	f.Add([]byte{3, 1, 0, 0x81, 2, 0, 0x82, 3, 0, 0x83}) // UNSAT chain
	f.Add([]byte{2, 1, 0x81, 0, 2, 2})                   // tautology, duplicate
	f.Add([]byte{1, 0})                                  // empty clause
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		nVars, clauses := decodeCNF(data)
		if nVars == 0 {
			return
		}
		wantSAT, _ := bruteForce(nVars, clauses)
		if got := solveChecked(t, nVars, clauses); got != wantSAT {
			t.Fatalf("solver=%v brute=%v clauses=%v", got, wantSAT, clauses)
		}
	})
}
