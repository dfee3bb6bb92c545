package bcf

import (
	"testing"

	"bcf/internal/ebpf"
	"bcf/internal/verifier"
)

// twoRoundProg needs two independent refinements (two relational map
// accesses), so the ledger accumulates more than one round.
func twoRoundProg() *ebpf.Program {
	return &ebpf.Program{
		Type: ebpf.ProgTracepoint,
		Maps: []*ebpf.MapSpec{{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 16, MaxEntries: 1}},
		Insns: ebpf.MustAssemble(`
			r1 = map[0]
			r2 = r10
			r2 += -4
			*(u32 *)(r10 -4) = 0
			call 1
			if r0 == 0 goto miss
			r6 = *(u64 *)(r0 +0)
			r6 &= 0xf
			r7 = 0xf
			r7 -= r6
			r1 = r0
			r1 += r6
			r1 += r7
			r2 = *(u8 *)(r1 +0)
			r8 = *(u64 *)(r0 +8)
			r8 &= 0x7
			r9 = 0x7
			r9 -= r8
			r1 = r0
			r1 += r8
			r1 += r9
			r1 += 4
			r0 = *(u8 *)(r1 +0)
			exit
		miss:
			r0 = 0
			exit
		`),
	}
}

// TestTrafficLedgerInvariant pins the refiner's traffic totals to its
// per-request record: in a fault-free load, Stats.CondBytes and
// Stats.ProofBytes must equal the sums of the per-request wire sizes byte
// for byte. A regression here means the limits and the record count
// boundary bytes differently.
func TestTrafficLedgerInvariant(t *testing.T) {
	progs := map[string]*ebpf.Program{
		"one-round":  sessionProg(),
		"two-rounds": twoRoundProg(),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			ref := NewRefiner(honest(t))
			if _, err := load(prog, verifier.Config{}, ref); err != nil {
				t.Fatalf("rejected: %v", err)
			}
			st := ref.Stats()
			if len(st.Requests) == 0 {
				t.Fatal("no requests recorded")
			}
			var condSum, proofSum int
			for _, q := range st.Requests {
				if q.CondBytes <= 0 || q.ProofBytes <= 0 {
					t.Fatalf("request with empty wire traffic: %+v", q)
				}
				condSum += q.CondBytes
				proofSum += q.ProofBytes
			}
			if st.CondBytes != condSum || st.ProofBytes != proofSum {
				t.Fatalf("totals (%d, %d), record sums (%d, %d)",
					st.CondBytes, st.ProofBytes, condSum, proofSum)
			}
		})
	}
}
