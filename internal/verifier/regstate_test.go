package verifier

// wellFormed reports internal consistency: a non-empty interval in
// every domain and a well-formed tnum.
func (r *RegState) wellFormed() bool {
	if r.Type != Scalar && !r.Type.IsPtr() {
		return true
	}
	if !r.Var.WellFormed() {
		return false
	}
	if r.UMin > r.UMax || r.SMin > r.SMax {
		return false
	}
	if r.U32Min > r.U32Max || r.S32Min > r.S32Max {
		return false
	}
	return true
}

// admits reports whether concrete value v is admitted by the scalar
// abstraction; when it is not, domain names the first violated domain.
// It is the containment check of the differential oracle
// (internal/difftest), which this package's tests cannot import.
func (r *RegState) admits(v uint64) (ok bool, domain string) {
	if !r.Var.Contains(v) {
		return false, "tnum"
	}
	if v < r.UMin || v > r.UMax {
		return false, "u64"
	}
	if int64(v) < r.SMin || int64(v) > r.SMax {
		return false, "s64"
	}
	v32 := uint32(v)
	if v32 < r.U32Min || v32 > r.U32Max {
		return false, "u32"
	}
	if int32(v32) < r.S32Min || int32(v32) > r.S32Max {
		return false, "s32"
	}
	return true, ""
}

// contains reports whether concrete value v is admitted by the scalar
// abstraction (all five domains).
func (r *RegState) contains(v uint64) bool {
	ok, _ := r.admits(v)
	return ok
}
