package obs

// Canonical metric names for the BCF pipeline. Every stage of a load —
// verifier exploration, refinement rounds, prover tiers, wire transfer,
// kernel proof check — reports under these names, so dashboards, the
// bcfbench -metrics table and the BENCH_*.json metrics block agree on
// vocabulary. Histograms with a _seconds suffix observe seconds; _bytes
// histograms observe sizes.
const (
	// Per-load stage latency histograms.
	MVerifySeconds        = "bcf_verify_seconds"         // whole verifier run (kernel side, incl. refinement waits)
	MKernelSeconds        = "bcf_kernel_seconds"         // per-load kernel-side share (§6.3 split)
	MUserSeconds          = "bcf_user_seconds"           // per-load user-side share (§6.3 split)
	MLoadSeconds          = "bcf_load_seconds"           // whole load, entry to verdict
	MRoundSeconds         = "bcf_round_seconds"          // one refinement round: request → proof returned
	MEncodeSeconds        = "bcf_encode_seconds"         // condition encode (kernel side)
	MTrackSeconds         = "bcf_track_seconds"          // backward analysis + symbolic tracking
	MProveSeconds         = "bcf_prove_seconds"          // whole solver.Prove call (tiers included)
	MProveRewriteSeconds  = "bcf_prove_rewrite_seconds"  // tier 1: rewrite/lemma engine
	MProveBitblastSeconds = "bcf_prove_bitblast_seconds" // tier 2: bit-blast + SAT
	MCheckSeconds         = "bcf_check_seconds"          // kernel-side proof decode + check

	// Wire traffic histograms.
	MCondBytes  = "bcf_cond_bytes"
	MProofBytes = "bcf_proof_bytes"

	// Pipeline counters.
	MLoadsTotal         = "bcf_loads_total"
	MLoadsAccepted      = "bcf_loads_accepted_total"
	MLoadFailures       = "bcf_load_failures_total" // labels: class, origin=organic|injected
	MInsnsProcessed     = "bcf_verifier_insns_total"
	MPathsExplored      = "bcf_verifier_paths_total"
	MStatesPruned       = "bcf_verifier_pruned_total"
	MRefineRequests     = "bcf_refine_requests_total"
	MRefinementsGranted = "bcf_refinements_granted_total"
	MRefinementsFailed  = "bcf_refinements_failed_total"
	MProveTier          = "bcf_prove_tier_total" // label: tier=rewrite|bitblast|counterexample
	MEscalations        = "bcf_solver_escalations_total"
	MCacheHits          = "bcf_proof_cache_hits_total"
	MCacheMisses        = "bcf_proof_cache_misses_total"
	MCacheCoalesced     = "bcf_proof_cache_coalesced_total" // singleflight piggybacks

	// Remote proving, client side (loader fallback accounting plus the
	// proof sources internal/prooffleet observes).
	MRemoteProofs    = "bcf_remote_proofs_total"    // obligations proven by the daemon
	MRemoteFallbacks = "bcf_remote_fallbacks_total" // transport failures degraded to in-process
	MRemoteSource    = "bcf_remote_source_total"    // label: src=solved|mem|disk|coalesced

	// Remote proving client (internal/prooffleet).
	MFleetDispatches   = "fleet_dispatches_total"    // label: backend
	MFleetFailovers    = "fleet_failovers_total"     // primary dead, key rehashed to a survivor
	MFleetByzantine    = "fleet_byzantine_total"     // undecodable/garbage proofs, label: backend
	MFleetBreakerOpens = "fleet_breaker_opens_total" // backend marked down, label: backend
	MFleetSeconds      = "fleet_prove_seconds"       // whole fleet ProveBytes call

	// Remote proving, daemon side (internal/proofd).
	MDaemonConns      = "proofd_conns_total"
	MDaemonRequests   = "proofd_requests_total" // label: type=prove|ping
	MDaemonReplies    = "proofd_replies_total"  // label: source=solved|mem|disk|coalesced
	MDaemonErrors     = "proofd_errors_total"   // label: class
	MDaemonRejects    = "proofd_frames_rejected_total"
	MDaemonInflight   = "proofd_inflight"
	MDaemonSeconds    = "proofd_request_seconds"
	MDaemonDiskHits   = "proofd_disk_hits_total"
	MDaemonDiskMisses = "proofd_disk_misses_total"
	MDaemonDiskWrites = "proofd_disk_writes_total"

	// Fault injection (chaos runs). Label: point.
	MFaultsInjected = "faultinject_fired_total"

	// Telemetry self-observation.
	MLabelsDropped = "obs_labels_dropped_total" // label combinations folded into {other="true"} by the cardinality cap

	// Coverage-guided soundness campaign (internal/fuzzcamp).
	MFuzzExecs          = "fuzzcamp_execs_total"           // programs run through the oracles
	MFuzzRounds         = "fuzzcamp_rounds_total"          // completed campaign rounds
	MFuzzExecsPerSec    = "fuzzcamp_execs_per_sec"         // gauge: throughput of the last stats flush
	MFuzzCoverageBits   = "fuzzcamp_coverage_bits"         // gauge: set bits in the global decision bitmap
	MFuzzCorpusSize     = "fuzzcamp_corpus_size"           // gauge: inputs kept for growing coverage
	MFuzzUniqueFailures = "fuzzcamp_unique_failures_total" // deduplicated oracle violations
	MFuzzFailuresSeen   = "fuzzcamp_failures_seen_total"   // raw oracle violations before dedup, label: oracle
	MFuzzWorkers        = "fuzzcamp_workers"               // gauge: size of the local worker pool
)

// Span categories of the trace taxonomy (DESIGN.md "Observability").
const (
	CatVerifier = "verifier"
	CatRefine   = "refine"
	CatProve    = "prove"
	CatWire     = "wire"
	CatCheck    = "check"
	CatLoad     = "load"
	CatRPC      = "rpc"
)

// LatencyBuckets cover 1µs..10s, the whole range the paper's stages span
// (proof checks are tens of µs, worst-case loads run minutes).
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ByteBuckets cover the wire-format sizes of Figure 8 (99.4% of proofs
// under one 4096-byte page, tail to ~46 KB).
var ByteBuckets = []float64{
	64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536, 262144, 1 << 20,
}

// StageHistogram resolves a canonical stage histogram with the right
// default buckets for its unit.
func (r *Registry) StageHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	switch name {
	case MCondBytes, MProofBytes:
		return r.Histogram(name, ByteBuckets...)
	default:
		return r.Histogram(name, LatencyBuckets...)
	}
}
