package bcfenc

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bcf/internal/expr"
	"bcf/internal/proof"
	"bcf/internal/solver"
)

// fig2Cond is the paper's Figure 2 refinement condition, in a new table.
func fig2Cond(hi uint64) *expr.Expr {
	tab := expr.NewTable(0)
	sym := tab.Var(0, 64)
	m := tab.And(sym, tab.Const(0xf, 64))
	e := tab.Add(m, tab.Sub(tab.Const(0xf, 64), m))
	return tab.Ule(e, tab.Const(hi, 64))
}

func TestConditionRoundTrip(t *testing.T) {
	tab := expr.NewTable(0)
	conds := []*expr.Expr{
		tab.Bool(true),
		fig2Cond(15),
		tab.Implies(
			tab.Ule(tab.Var(0, 32), tab.Const(10, 32)),
			tab.BoolAnd(
				tab.Ule(tab.Const(0, 64), tab.ZExt(tab.Var(0, 32), 64)),
				tab.Ne(tab.Extract(tab.Var(1, 64), 32, 32), tab.Const(0, 32)),
			),
		),
		tab.Eq(tab.Ashr(tab.Var(2, 64), tab.Const(31, 64)), tab.Const(0, 64)),
	}
	for i, c := range conds {
		buf, err := EncodeCondition(&Condition{Cond: c})
		if err != nil {
			t.Fatalf("cond %d: encode: %v", i, err)
		}
		back, err := DecodeCondition(buf)
		if err != nil {
			t.Fatalf("cond %d: decode: %v", i, err)
		}
		if !expr.Equal(back.Cond, c) {
			t.Fatalf("cond %d: roundtrip changed term:\n got %s\nwant %s", i, back.Cond, c)
		}
	}
}

func TestSharingKeepsEncodingCompact(t *testing.T) {
	// Figure 2's condition shares the mask subterm; the pool must encode
	// it once. Compare against an artificially unshared equivalent size.
	buf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	// 7 distinct nodes (var, 0xf, and, sub, add, 15, ule); generous cap.
	if len(buf) > 200 {
		t.Errorf("condition encoding unexpectedly large: %d bytes", len(buf))
	}
	// Paper: conditions average 836 bytes with min 88; sanity floor.
	if len(buf) < 24 {
		t.Errorf("suspiciously small encoding: %d bytes", len(buf))
	}
}

func TestProofRoundTrip(t *testing.T) {
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil || !out.Proven {
		t.Fatalf("prove: %v %+v", err, out)
	}
	buf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Steps) != len(out.Proof.Steps) {
		t.Fatalf("step count changed: %d -> %d", len(out.Proof.Steps), len(back.Steps))
	}
	for i := range back.Steps {
		a, b := &out.Proof.Steps[i], &back.Steps[i]
		if a.Rule != b.Rule || len(a.Premises) != len(b.Premises) || len(a.Args) != len(b.Args) ||
			a.Pivot != b.Pivot || a.ClauseIdx != b.ClauseIdx {
			t.Fatalf("step %d changed: %s -> %s", i, a.String(), b.String())
		}
		for j := range a.Args {
			if !expr.Equal(a.Args[j], b.Args[j]) {
				t.Fatalf("step %d arg %d changed", i, j)
			}
		}
	}
	// The decoded proof must still check.
	if err := proof.Check(fig2Cond(15), back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
}

func TestProofRoundTripBitblastTier(t *testing.T) {
	tab := expr.NewTable(0)
	x, y := tab.Var(0, 16), tab.Var(1, 16)
	sum := tab.Add(tab.And(x, tab.Const(0xf, 16)), tab.And(y, tab.Const(0xf, 16)))
	cond := tab.Ule(sum, tab.Const(30, 16))
	out, err := solver.Prove(nil, cond, solver.Options{DisableRewriteTier: true})
	if err != nil || !out.Proven {
		t.Fatalf("prove: %v", err)
	}
	buf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProof(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.Check(cond, back); err != nil {
		t.Fatalf("decoded bitblast proof rejected: %v", err)
	}

	// Every step's premises are a full-slice view (len == cap) of the
	// decoder's one premise array, so appending to one step's premises
	// copies instead of overwriting the next step's.
	var withPrems []int
	resolves := 0
	for i, s := range back.Steps {
		if len(s.Premises) != cap(s.Premises) {
			t.Fatalf("step %d: premises len %d, cap %d", i, len(s.Premises), cap(s.Premises))
		}
		if len(s.Premises) > 0 {
			withPrems = append(withPrems, i)
		}
		if s.Rule == proof.RuleResolve {
			resolves++
		}
	}
	if resolves < 2 {
		t.Fatalf("want a multi-step resolution proof, got %d resolution steps", resolves)
	}
	for k := 0; k+1 < len(withPrems); k++ {
		cur, next := &back.Steps[withPrems[k]], &back.Steps[withPrems[k+1]]
		want := slices.Clone(next.Premises)
		cur.Premises = append(cur.Premises, 0xdeadbeef)
		if !slices.Equal(next.Premises, want) {
			t.Fatalf("appending to step %d's premises changed step %d's: %v, want %v",
				withPrems[k], withPrems[k+1], next.Premises, want)
		}
	}
}

// TestDecodeRejectsBadNodeReferences feeds hand-built pools to both
// decoders: a root or argument offset past the pool, and a node that
// refers to itself or to a later node, must each be rejected.
func TestDecodeRejectsBadNodeReferences(t *testing.T) {
	// Offset 0: a 64-bit variable (header, id). Offset 2: a bvnot whose
	// argument word is patched per case. Offset 4: (= var bvnot), the
	// root.
	pool := func(ref uint32) []uint32 {
		return []uint32{
			uint32(expr.OpVar) | 64<<8, 0,
			uint32(expr.OpNot) | 64<<8 | 1<<24, ref,
			uint32(expr.OpEq) | 1<<8 | 2<<24, 0, 2,
		}
	}
	cond := func(root uint32, words []uint32) []byte {
		var w writer
		w.u32(MagicCondition)
		w.u32(Version)
		w.u32(uint32(len(words)))
		w.u32(root)
		for _, x := range words {
			w.u32(x)
		}
		return w.buf
	}
	prf := func(arg uint32, words []uint32) []byte {
		var w writer
		w.u32(MagicProof)
		w.u32(Version)
		w.u32(uint32(len(words)))
		w.u32(1)
		for _, x := range words {
			w.u32(x)
		}
		w.u32(uint32(proof.RuleLemmaZeroUle) | 1<<24)
		w.u32(arg)
		return w.buf
	}
	// The well-formed pool decodes, so each rejection below is the bad
	// reference's.
	if _, err := DecodeCondition(cond(4, pool(0))); err != nil {
		t.Fatalf("well-formed condition rejected: %v", err)
	}
	if _, err := DecodeProof(prf(4, pool(0))); err != nil {
		t.Fatalf("well-formed proof rejected: %v", err)
	}
	decodeCond := func(b []byte) error { _, err := DecodeCondition(b); return err }
	decodeProof := func(b []byte) error { _, err := DecodeProof(b); return err }
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		msg    []byte
	}{
		{"condition root at the pool's end", decodeCond, cond(7, pool(0))},
		{"condition root far past the pool", decodeCond, cond(1<<20, pool(0))},
		{"proof argument at the pool's end", decodeProof, prf(7, pool(0))},
		{"self reference", decodeProof, prf(2, pool(2))},
		{"forward reference", decodeProof, prf(4, pool(4))},
		{"forward reference past the pool", decodeProof, prf(4, pool(1<<20))},
	} {
		if tc.decode(tc.msg) == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		good[:8],
		append(append([]byte{}, good...), 0, 0, 0, 0),
	}
	for i, c := range cases {
		if _, err := DecodeCondition(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	if _, err := DecodeProof(good); err == nil {
		t.Error("condition message accepted as proof")
	}
}

// TestDecodeFuzz flips bytes in valid messages; the decoder must never
// panic, and whatever it accepts must still be well-formed.
func TestDecodeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	condBuf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proofBuf, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 5000; iter++ {
		buf := append([]byte{}, condBuf...)
		buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		if c, err := DecodeCondition(buf); err == nil {
			if werr := recheck(c.Cond); werr != nil {
				t.Fatalf("decoder accepted malformed condition: %v", werr)
			}
		}
		pb := append([]byte{}, proofBuf...)
		pb[rng.Intn(len(pb))] ^= byte(1 << rng.Intn(8))
		if p, err := DecodeProof(pb); err == nil {
			for _, s := range p.Steps {
				for _, a := range s.Args {
					if werr := recheck(a); werr != nil {
						t.Fatalf("decoder accepted malformed proof arg: %v", werr)
					}
				}
			}
		}
	}
}

func TestTruncationFuzz(t *testing.T) {
	condBuf, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(condBuf); n++ {
		if _, err := DecodeCondition(condBuf[:n]); err == nil {
			t.Fatalf("truncated message (%d bytes) accepted", n)
		}
	}
}

// allocBytes returns the fewest bytes f allocated over three runs.
func allocBytes(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// chainCond is x+c0+c1+...+c(n-1) <= 15: a term n additions deep with
// no shared subterms.
func chainCond(n int) *expr.Expr {
	tab := expr.NewTable(0)
	e := tab.Var(0, 64)
	for i := 0; i < n; i++ {
		e = tab.Add(e, tab.Const(uint64(i), 64))
	}
	return tab.Ule(e, tab.Const(15, 64))
}

// TestDecodeLinearInDepth pins decoding to work linear in the pool:
// doubling the depth of a chain may at most about double the bytes
// allocated. Walking each decoded node's whole subterm again would make
// it quadratic (about 4x).
func TestDecodeLinearInDepth(t *testing.T) {
	const n = 1000
	encode := func(depth int) (cond, pf []byte) {
		c := chainCond(depth)
		cond, err := EncodeCondition(&Condition{Cond: c})
		if err != nil {
			t.Fatal(err)
		}
		pf, err = EncodeProof(&proof.Proof{Steps: []proof.Step{{Rule: proof.RuleLemmaZeroUle, Args: []*expr.Expr{c}}}})
		if err != nil {
			t.Fatal(err)
		}
		return cond, pf
	}
	c1, p1 := encode(n)
	c2, p2 := encode(2 * n)
	decodeCond := func(b []byte) error { _, err := DecodeCondition(b); return err }
	decodeProof := func(b []byte) error { _, err := DecodeProof(b); return err }
	for _, m := range []struct {
		name       string
		decode     func([]byte) error
		small, big []byte
	}{{"DecodeCondition", decodeCond, c1, c2}, {"DecodeProof", decodeProof, p1, p2}} {
		bytesFor := func(buf []byte) uint64 {
			return allocBytes(func() {
				if err := m.decode(buf); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, big := bytesFor(m.small), bytesFor(m.big)
		ratio := float64(big) / float64(small)
		t.Logf("%s: depth %d allocates %d B, depth %d allocates %d B (%.2fx)", m.name, n, small, 2*n, big, ratio)
		if ratio > 2.5 {
			t.Errorf("%s: doubling the depth multiplied allocation by %.2fx, want at most 2.5x", m.name, ratio)
		}
	}
}
