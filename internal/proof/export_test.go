package proof

import "bcf/internal/expr"

// Limits is the checker's resource limits, and DefaultLimits the ones
// Check uses, for the external tests that tighten them.
type Limits = limits

var DefaultLimits = defaultLimits

// CheckWork is Check under lim that also returns the checker's work
// units, for the tests that bound work per proof byte.
func CheckWork(cond *expr.Expr, p *Proof, lim Limits) (int, error) {
	return check(cond, p, lim)
}

// MaxWorkPerProofByte bounds the checker's work units per proof byte
// (TestCheckWorkPerProofByte, FuzzCheckProof).
const MaxWorkPerProofByte = 2
