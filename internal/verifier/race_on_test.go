//go:build race

package verifier

// RaceEnabled reports a -race build, whose instrumentation perturbs
// allocation counts.
const RaceEnabled = true
