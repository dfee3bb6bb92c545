//go:build race

package bcf

// raceEnabled reports a -race build, whose instrumentation perturbs
// allocation counts.
const raceEnabled = true
