package elf_test

import (
	"testing"

	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/elf"
	"bcf/internal/loader"
	"bcf/internal/verifier"
)

// rtInsnLimit mirrors the corpus evaluation budget (see bench_test.go).
const rtInsnLimit = 4000

// loadFingerprint is the deterministic slice of a loader.Result: verdict,
// error identity, traffic ledger and counters — everything except
// wall-clock times. The ELF round trip must reproduce it exactly.
type loadFingerprint struct {
	Accepted      bool
	Err           string
	ErrClass      string
	VerifierStats verifier.Stats
	Rounds        int
	CondBytes     int
	ProofBytes    int
	CacheHits     int
	Granted       int
	Failed        int
	Requests      int
}

func fingerprint(res *loader.Result) loadFingerprint {
	fp := loadFingerprint{
		Accepted:      res.Accepted,
		ErrClass:      res.ErrClass.String(),
		VerifierStats: res.VerifierStats,
		Rounds:        res.Rounds,
		CondBytes:     res.CondBytes,
		ProofBytes:    res.ProofBytes,
		CacheHits:     res.CacheHits,
	}
	if res.Err != nil {
		fp.Err = res.Err.Error()
	}
	if rs := res.RefineStats; rs != nil {
		fp.Granted, fp.Failed, fp.Requests = rs.Granted, rs.Failed, len(rs.Requests)
	}
	return fp
}

// TestRoundTripVerdictIdentity emits every corpus entry as an ELF object,
// re-parses it, and verifies both forms through the full load → refine →
// prove pipeline with fresh state on each side. The fingerprints must be
// identical: the ELF frontend is a container, not a semantic layer.
func TestRoundTripVerdictIdentity(t *testing.T) {
	entries := corpus.Generate()
	stride := 1
	if testing.Short() {
		stride = 16
	}
	// The subtest name is kept stable as the test's ID.
	t.Run("parallel-1", func(t *testing.T) {
		opts := loader.Options{EnableBCF: true, Verifier: verifier.Config{InsnLimit: rtInsnLimit}}
		for i := 0; i < len(entries); i += stride {
			e := entries[i]
			data, err := elf.EmitProgram(e.Prog)
			if err != nil {
				t.Fatalf("entry %d (%s): emit: %v", e.Index, e.Prog.Name, err)
			}
			obj, err := elf.ParseObject(data)
			if err != nil {
				t.Fatalf("entry %d (%s): parse: %v", e.Index, e.Prog.Name, err)
			}
			direct := fingerprint(loader.Load(e.Prog, opts))
			viaELF := fingerprint(loader.Load(obj.Programs[0], opts))
			if direct != viaELF {
				t.Errorf("entry %d (%s/%s): verdict differs across ELF round trip:\ndirect: %+v\nelf:    %+v",
					e.Index, e.Family, e.Prog.Name, direct, viaELF)
			}
		}
	})
}

// TestRoundTripVerdictIdentityXDP covers the packet-pointer model, which
// the (tracepoint-only) corpus does not reach.
func TestRoundTripVerdictIdentityXDP(t *testing.T) {
	accept := testProgram()
	reject := &ebpf.Program{
		Name: "xdp_bad", Type: ebpf.ProgXDP,
		Insns: ebpf.MustAssemble(`
			r2 = *(u32 *)(r1 +0)
			r0 = *(u16 *)(r2 +12)
			exit
		`),
	}
	for _, prog := range []*ebpf.Program{accept, reject} {
		data, err := elf.EmitProgram(prog)
		if err != nil {
			t.Fatalf("%s: emit: %v", prog.Name, err)
		}
		obj, err := elf.ParseObject(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", prog.Name, err)
		}
		opts := loader.Options{EnableBCF: true}
		direct := fingerprint(loader.Load(prog, opts))
		viaELF := fingerprint(loader.Load(obj.Programs[0], opts))
		if direct != viaELF {
			t.Errorf("%s: verdict differs across ELF round trip:\ndirect: %+v\nelf:    %+v",
				prog.Name, direct, viaELF)
		}
	}
}
