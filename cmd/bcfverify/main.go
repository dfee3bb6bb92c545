// Command bcfverify loads an eBPF program through the verifier, with or
// without BCF's proof-guided abstraction refinement, and reports the
// verdict plus the refinement transcript.
//
// Usage:
//
//	bcfverify [-bcf] [-debug] [-stats] [-map-value-size N] prog.s
//	bcfverify [-bcf] prog.o
//
// The input is textual assembly (see bcfasm); `-bin` accepts raw bytecode
// instead, and an ELF relocatable object (detected by magic) is loaded
// through the internal/elf frontend: each program section is verified in
// turn with the object's own maps and section-derived program type, and
// the process exits non-zero if any program is rejected. For the textual
// and raw forms, `map[0]` references resolve to a single array map whose
// value size is set by -map-value-size. `-stats` dumps the telemetry
// snapshot of the load (per-stage latency histograms, pipeline counters)
// as JSON after the verdict.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"bcf"
	"bcf/internal/bcferr"
	"bcf/internal/elf"
	"bcf/internal/obs"
	"bcf/internal/prooffleet"
)

func main() {
	useBCF := flag.Bool("bcf", false, "enable proof-guided abstraction refinement")
	debug := flag.Bool("debug", false, "print the verifier log")
	bin := flag.Bool("bin", false, "input is raw bytecode, not assembly")
	valueSize := flag.Uint("map-value-size", 16, "value size of map[0]")
	insnLimit := flag.Int("insn-limit", 0, "analyzed-instruction budget (0 = kernel default)")
	progType := flag.String("type", "tracepoint", "program type: tracepoint|xdp|socket_filter|sched_cls|cgroup_skb (ignored for ELF input)")
	stats := flag.Bool("stats", false, "dump the telemetry metrics snapshot as JSON after the verdict")
	remote := flag.String("remote", "", "prove via bcfd daemon(s): unix:/path or host:port, comma-separated for a fleet")
	remoteOnly := flag.Bool("remote-only", false, "with -remote: fail instead of falling back to the in-process solver")
	listen := flag.String("listen", "", "serve /metrics, /debug/journal and /debug/pprof on this address while verifying")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bcfverify [flags] prog.s|prog.o")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var progs []*bcf.Program
	if elf.IsObject(data) {
		obj, err := elf.ParseObject(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcfverify: %s: REJECTED (elf): %v (class %s)\n",
				flag.Arg(0), err, bcferr.ClassOf(err))
			os.Exit(1)
		}
		progs = obj.Programs
	} else {
		var insns []bcf.Instruction
		if *bin {
			insns, err = decodeBin(data)
		} else {
			insns, err = bcf.Assemble(string(data))
		}
		if err != nil {
			fatal(err)
		}
		progs = []*bcf.Program{{
			Name:  flag.Arg(0),
			Type:  parseType(*progType),
			Insns: insns,
			Maps: []*bcf.MapSpec{{
				Name: "map0", Type: bcf.MapArray,
				KeySize: 4, ValueSize: uint32(*valueSize), MaxEntries: 16,
			}},
		}}
	}

	opts := []bcf.Option{}
	if *useBCF {
		opts = append(opts, bcf.WithBCF())
	}
	if *debug {
		opts = append(opts, bcf.WithDebug())
	}
	if *insnLimit > 0 {
		opts = append(opts, bcf.WithInsnLimit(*insnLimit))
	}
	var reg *bcf.Registry
	if *stats || *listen != "" {
		reg = bcf.NewRegistry()
		reg.SetJournal(obs.NewJournal(0))
		opts = append(opts, bcf.WithTelemetry(reg, nil))
	}
	if *listen != "" {
		go func() {
			if err := http.ListenAndServe(*listen, obs.DebugMux(reg, nil)); err != nil {
				fmt.Fprintln(os.Stderr, "bcfverify: listen:", err)
			}
		}()
	}
	if *remote != "" {
		fleet, err := bcf.NewRemoteFleet(bcf.FleetOptions{
			Endpoints: prooffleet.SplitEndpoints(*remote),
			Obs:       reg,
		})
		if err != nil {
			fatal(err)
		}
		defer fleet.Close()
		opts = append(opts, bcf.WithRemoteProver(fleet))
		if *remoteOnly {
			opts = append(opts, bcf.WithRemoteOnly())
		}
	} else if *remoteOnly {
		fatal(fmt.Errorf("-remote-only requires -remote"))
	}

	mode := "baseline"
	if *useBCF {
		mode = "BCF"
	}
	rejected := false
	for _, prog := range progs {
		prefix := ""
		if len(progs) > 1 {
			prefix = prog.Name + ": "
		}
		start := time.Now()
		report := bcf.Verify(prog, opts...)
		elapsed := time.Since(start)

		for _, line := range report.Log {
			fmt.Println(" ", line)
		}
		if report.Accepted {
			fmt.Printf("%sACCEPTED (%s) in %v\n", prefix, mode, elapsed.Round(time.Microsecond))
		} else {
			rejected = true
			fmt.Printf("%sREJECTED (%s): %v (class %s)\n", prefix, mode, report.Err, report.Class)
		}
		fmt.Printf("  insns processed: %d, paths: %d, states pruned: %d\n",
			report.Stats.InsnProcessed, report.Stats.PathsExplored, report.Stats.StatesPruned)
		if *useBCF {
			fmt.Printf("  refinements: %d granted / %d requested\n",
				report.Refinements, report.RefinementRequests)
			for i, d := range report.RefinementDetails() {
				fmt.Printf("    #%d: track=%d insns, condition=%dB, proof=%dB, check=%dµs\n",
					i, d.TrackLen, d.CondBytes, d.ProofBytes, d.CheckNanos/1000)
			}
			if report.Counterexample != nil {
				fmt.Printf("  counterexample: %v\n", report.Counterexample)
			}
		}
	}
	if *stats {
		fmt.Println("  metrics:")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if rejected {
		os.Exit(1)
	}
}

func decodeBin(data []byte) ([]bcf.Instruction, error) {
	// Raw bytecode decoding lives in the internal ebpf package; go via
	// the assembler-compatible path.
	return bcf.DecodeBytecode(data)
}

func parseType(s string) bcf.ProgType {
	switch s {
	case "xdp":
		return bcf.ProgXDP
	case "socket_filter":
		return bcf.ProgSocketFilter
	case "sched_cls":
		return bcf.ProgSchedCLS
	case "cgroup_skb":
		return bcf.ProgCgroupSkb
	default:
		return bcf.ProgTracepoint
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcfverify:", err)
	os.Exit(1)
}
