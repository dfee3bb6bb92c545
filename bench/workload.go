package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"bcf/internal/bcferr"
	"bcf/internal/corpus"
	"bcf/internal/ebpf"
	"bcf/internal/loader"
	"bcf/internal/proofd"
	"bcf/internal/prooffleet"
	"bcf/internal/verifier"
)

// corpusInsnLimit is the analyzed-instruction budget of the §6.2
// evaluation, the one cmd/bcfbench and the repository benchmarks use.
const corpusInsnLimit = 4000

// pathExplosionPass is how many identical loads make one path-explosion
// pass, so its warm-up and traced passes do more than one load.
const pathExplosionPass = 16

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"corpus-eval", "bitblast-cold", "path-explosion", "remote-daemon"}

// entry is one load of a workload pass with its known answer.
type entry struct {
	prog   *ebpf.Program
	expect corpus.Outcome
}

// workload is one load mix. A pass loads every entry once, in an order
// the seed permutes.
type workload struct {
	name      string
	pass      []entry
	insnLimit int
	// cached gives every pass one fresh ProofCache shared by all clients,
	// as eval.RunOpts does for one evaluation.
	cached bool
	// remote proves through an in-process proofd daemon and a fleet of
	// one, with no local cache and no in-process fallback.
	remote bool
	// seedNote, when set, says why the seed changes nothing.
	seedNote string
}

func newWorkload(name string) (*workload, error) {
	w := &workload{name: name, insnLimit: corpusInsnLimit}
	switch name {
	case "corpus-eval":
		w.pass, w.cached = corpusPass(nil), true
	case "bitblast-cold":
		// One obligation outside the rewrite fragment per load: a
		// bit-blast proof, or a counterexample for subreg-spill.
		w.pass = corpusPass(map[corpus.Family]bool{
			corpus.HelperSize: true, corpus.UnreachablePath: true,
			corpus.ShiftCompare: true, corpus.SubregSpill: true,
		})
	case "path-explosion":
		prog := corpus.ParallelStress(8, 96, 0)
		for i := 0; i < pathExplosionPass; i++ {
			w.pass = append(w.pass, entry{prog: prog, expect: corpus.ExpectAccept})
		}
		w.insnLimit = verifier.DefaultInsnLimit
		w.seedNote = "every load is the same program, so the seed changes nothing"
	case "remote-daemon":
		w.pass, w.remote = corpusPass(nil), true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// corpusPass returns the corpus entries of the given families (all when
// families is nil), in corpus order.
func corpusPass(families map[corpus.Family]bool) []entry {
	var out []entry
	for _, e := range corpus.Generate() {
		if families == nil || families[e.Family] {
			out = append(out, entry{prog: e.Prog, expect: e.Expect})
		}
	}
	return out
}

// options are the loader options of one load.
func (w *workload) options(cache *loader.ProofCache, r *rig) loader.Options {
	o := loader.Options{
		EnableBCF:  true,
		Verifier:   verifier.Config{InsnLimit: w.insnLimit, ParallelPaths: 1},
		ProofCache: cache,
	}
	if r.fleet != nil {
		o.Remote, o.RemoteOnly = r.fleet, true
	}
	return o
}

// expectedTally counts the known answers of one pass.
func (w *workload) expectedTally() tally {
	var t tally
	for _, e := range w.pass {
		t[e.expect]++
	}
	return t
}

// tally counts verdicts by corpus.Outcome.
type tally [corpus.ExpectRejectUntriggered + 1]int

// named renders the tally with the outcome names.
func (t tally) named() map[string]int {
	m := map[string]int{}
	for o := corpus.ExpectAccept; o <= corpus.ExpectRejectUntriggered; o++ {
		m[o.String()] = t[o]
	}
	return m
}

// outcome buckets a finished load the way the §6.2 headline does;
// rounds counts the conditions the load shipped to user space.
func outcome(accepted bool, err error, rounds int) corpus.Outcome {
	var ve *verifier.Error
	switch {
	case accepted:
		return corpus.ExpectAccept
	case errors.As(err, &ve) && ve.InsnIdx == -1:
		return corpus.ExpectRejectInsnLimit
	case rounds == 0:
		return corpus.ExpectRejectUntriggered
	default:
		return corpus.ExpectRejectWeakCond
	}
}

// classOf buckets a load error as loader.Result.ErrClass does.
func classOf(err error) bcferr.Class {
	if err == nil {
		return bcferr.ClassNone
	}
	if c := bcferr.ClassOf(err); c != bcferr.ClassNone {
		return c
	}
	return bcferr.ClassUnsafe
}

// fault says why a load counts as failed, or "" when it does not: a
// verdict other than the known answer, an error class other than none
// or unsafe, or a fallback from the remote prover.
func fault(e entry, got corpus.Outcome, err error, fallbacks int) string {
	switch c := classOf(err); {
	case got != e.expect:
		return fmt.Sprintf("%s: verdict %s, want %s (%v)", e.prog.Name, got, e.expect, err)
	case c != bcferr.ClassNone && c != bcferr.ClassUnsafe:
		return fmt.Sprintf("%s: error class %s (%v)", e.prog.Name, c, err)
	case fallbacks > 0:
		return fmt.Sprintf("%s: %d fallbacks from the remote prover", e.prog.Name, fallbacks)
	}
	return ""
}

// rig is the serving state one set-up builds: for remote-daemon an
// in-process proofd daemon on an abstract unix socket, which leaves no
// file behind, and a one-endpoint fleet with hedging off in front of it.
// Other workloads need none.
type rig struct {
	server *proofd.Server
	fleet  *prooffleet.Fleet
	served chan error
}

var rigSeq atomic.Int64

func newRig(w *workload) (*rig, error) {
	if !w.remote {
		return &rig{}, nil
	}
	l, err := net.Listen("unix", fmt.Sprintf("@bcf-bench-%d-%d", os.Getpid(), rigSeq.Add(1)))
	if err != nil {
		return nil, fmt.Errorf("daemon socket: %w", err)
	}
	r := &rig{server: proofd.New(proofd.Options{}), served: make(chan error, 1)}
	go func() { r.served <- r.server.Serve(l) }()
	r.fleet, err = prooffleet.New(prooffleet.Options{
		Endpoints:  []string{"unix:" + l.Addr().String()},
		HedgeDelay: -1,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close stops the fleet and drains the daemon, waiting for both.
func (r *rig) close() {
	if r.server == nil {
		return
	}
	if r.fleet != nil {
		r.fleet.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r.server.Shutdown(ctx)
	<-r.served
}
