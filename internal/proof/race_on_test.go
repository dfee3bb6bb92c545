//go:build race

package proof_test

// raceEnabled reports a -race build, whose instrumentation perturbs
// allocation counts.
const raceEnabled = true
