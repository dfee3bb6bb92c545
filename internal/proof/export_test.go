package proof

import "bcf/internal/expr"

// CheckWork is CheckWithLimits that also returns the checker's work
// units, for the tests that bound work per proof byte.
func CheckWork(cond *expr.Expr, p *Proof, lim Limits) (int, error) {
	return check(cond, p, lim)
}

// MaxWorkPerProofByte bounds the checker's work units per proof byte
// (TestCheckWorkPerProofByte, FuzzCheckProof).
const MaxWorkPerProofByte = 2
