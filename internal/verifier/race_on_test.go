//go:build race

package verifier

// raceEnabled reports a -race build, whose instrumentation perturbs
// allocation counts.
const raceEnabled = true
