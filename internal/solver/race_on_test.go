//go:build race

package solver_test

// raceEnabled reports a -race build, whose instrumentation perturbs
// allocation counts.
const raceEnabled = true
