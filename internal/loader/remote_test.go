package loader

import (
	"context"
	"fmt"
	"testing"

	"bcf/internal/bcferr"
	"bcf/internal/ebpf"
)

// unreachableProver is a remote prover whose every call fails as a
// transport fault, as a fleet with every backend dead or down does.
type unreachableProver struct{ calls int }

func (p *unreachableProver) ProveBytes(context.Context, []byte) ([]byte, error) {
	p.calls++
	return nil, fmt.Errorf("fake fleet: no backend answered: %w", bcferr.ErrRemoteUnavailable)
}

// figure2Prog is the paper's running example, which needs refinement —
// so every load drives the remote prover.
func figure2Prog() *ebpf.Program {
	return prog(lookupPrologue+`
		r1 = r0
		r2 = *(u64 *)(r1 +0)
		r2 &= 0xf
		r1 += r2
		r3 = 0xf
		r3 -= r2
		r1 += r3
		r0 = *(u8 *)(r1 +0)
		exit
	`+lookupEpilogue, testMap16)
}

// TestRemoteUnavailableFallsBack: by default an unreachable remote
// prover degrades to the in-process solver, and the load is accepted.
func TestRemoteUnavailableFallsBack(t *testing.T) {
	remote := &unreachableProver{}
	res := Load(figure2Prog(), Options{EnableBCF: true, Remote: remote})
	if !res.Accepted {
		t.Fatalf("rejected: %v", res.Err)
	}
	if res.RemoteFallbacks == 0 || remote.calls == 0 {
		t.Fatalf("fallbacks=%d calls=%d, want both > 0", res.RemoteFallbacks, remote.calls)
	}
	if res.RemoteProofs != 0 {
		t.Fatalf("remote proofs = %d from an unreachable prover", res.RemoteProofs)
	}
}

// TestRemoteUnavailableRemoteOnlyClassified: with RemoteOnly an
// unreachable remote prover is the load's outcome, classified as a
// protocol failure instead of masked by the local solver.
func TestRemoteUnavailableRemoteOnlyClassified(t *testing.T) {
	res := Load(figure2Prog(), Options{EnableBCF: true, Remote: &unreachableProver{}, RemoteOnly: true})
	if res.Accepted {
		t.Fatal("accepted under RemoteOnly with an unreachable remote prover")
	}
	if res.ErrClass != bcferr.ClassProtocol {
		t.Fatalf("class = %v (%v), want protocol", res.ErrClass, res.Err)
	}
	if res.RemoteFallbacks != 0 {
		t.Fatalf("RemoteOnly load fell back %d times", res.RemoteFallbacks)
	}
}
