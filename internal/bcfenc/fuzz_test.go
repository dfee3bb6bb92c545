package bcfenc

import (
	"testing"

	"bcf/internal/expr"
	"bcf/internal/solver"
)

// Fuzz targets for the wire-format decoders: the kernel-side entry point
// for all untrusted bytes. Properties: never panic, and anything that
// decodes is well-formed and re-encodable (so a hostile stream cannot
// smuggle malformed terms past the boundary).

func condSeed(t interface{ Fatal(...any) }) []byte {
	b, err := EncodeCondition(&Condition{Cond: fig2Cond(15)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func proofSeed(t interface{ Fatal(...any) }) []byte {
	out, err := solver.Prove(nil, fig2Cond(15), solver.Options{})
	if err != nil || !out.Proven {
		t.Fatal(err)
	}
	b, err := EncodeProof(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func FuzzDecodeCondition(f *testing.F) {
	seed := condSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for i := 0; i < len(seed); i += 7 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCondition(data)
		if err != nil {
			return
		}
		if c.Cond == nil || c.Cond.Width != 1 {
			t.Fatal("decoder returned a non-boolean condition without error")
		}
		if err := recheck(c.Cond); err != nil {
			t.Fatalf("decoded condition is malformed: %v", err)
		}
		re, err := EncodeCondition(c)
		if err != nil {
			t.Fatalf("re-encoding a decoded condition failed: %v", err)
		}
		back, err := DecodeCondition(re)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if !expr.Equal(back.Cond, c.Cond) {
			t.Fatal("round trip changed the condition")
		}
	})
}

func FuzzDecodeProof(f *testing.F) {
	seed := proofSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for i := 0; i < len(seed); i += 11 {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x04
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProof(data)
		if err != nil {
			return
		}
		for i := range p.Steps {
			for _, a := range p.Steps[i].Args {
				if a == nil {
					t.Fatalf("step %d: decoder produced a nil arg", i)
				}
				if err := recheck(a); err != nil {
					t.Fatalf("step %d: malformed arg: %v", i, err)
				}
			}
		}
		if _, err := EncodeProof(p); err != nil {
			t.Fatalf("re-encoding a decoded proof failed: %v", err)
		}
	})
}

// recheck applies the typing rule to every node of e again: interning
// into a new table checks each node as it enters.
func recheck(e *expr.Expr) error {
	_, err := expr.NewTable(0).Intern(e)
	return err
}
