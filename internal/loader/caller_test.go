package loader

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"bcf/internal/bcferr"
	"bcf/internal/verifier"
)

// goid returns the current goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// goidObserver records the goroutines the verifier's Observe calls run on.
type goidObserver map[string]bool

func (o goidObserver) Observe(any, verifier.Event) any {
	o[goid()] = true
	return nil
}

// goidRemote records the goroutines it is called on and reports its
// transport as down, so the local solver proves every condition.
type goidRemote struct {
	seen  map[string]bool
	calls int
}

func (r *goidRemote) ProveBytes(ctx context.Context, cond []byte) ([]byte, error) {
	r.calls++
	r.seen[goid()] = true
	return nil, bcferr.ErrRemoteUnavailable
}

// twoCondLoad loads twoCondProg with refinement on, recording where the
// verifier steps and where the loader's prover is called.
func twoCondLoad(t *testing.T) (*Result, goidObserver, *goidRemote) {
	t.Helper()
	steps := goidObserver{}
	remote := &goidRemote{seen: map[string]bool{}}
	res := Load(twoCondProg(), Options{
		EnableBCF: true,
		Verifier:  verifier.Config{Observer: steps},
		Remote:    remote,
	})
	if !res.Accepted || res.Rounds != 2 || remote.calls != 2 || res.RemoteFallbacks != 2 {
		t.Fatalf("accepted %v (%v), rounds %d, remote calls %d, fallbacks %d; want an accept in 2 local rounds",
			res.Accepted, res.Err, res.Rounds, remote.calls, res.RemoteFallbacks)
	}
	return res, steps, remote
}

// TestLoadRunsOnCallerGoroutine pins the load to one goroutine: the
// verifier walk and every call into user space run on the goroutine that
// called Load.
func TestLoadRunsOnCallerGoroutine(t *testing.T) {
	_, steps, remote := twoCondLoad(t)
	caller := goid()
	for name, seen := range map[string]map[string]bool{"verifier steps": steps, "remote prover": remote.seen} {
		if len(seen) != 1 || !seen[caller] {
			t.Errorf("%s ran on goroutines %v, caller is %s", name, seen, caller)
		}
	}
}

// TestKernelUserSplitOneClock pins the §6.3 split to one clock: user time
// is what the refiner measured around its calls into user space, and the
// kernel share is the rest of the run.
func TestKernelUserSplitOneClock(t *testing.T) {
	res, _, _ := twoCondLoad(t)
	if res.UserTime != res.RefineStats.UserTime {
		t.Errorf("UserTime %v, refiner measured %v", res.UserTime, res.RefineStats.UserTime)
	}
	if res.KernelTime <= 0 || res.UserTime <= 0 || res.KernelTime+res.UserTime > res.TotalTime {
		t.Errorf("kernel %v + user %v against total %v", res.KernelTime, res.UserTime, res.TotalTime)
	}
}
