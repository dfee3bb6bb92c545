package verifier

import (
	"fmt"

	"bcf/internal/tnum"
)

// applyInvariants widens registers to their declared loop-fixpoint
// ranges at annotated instructions. A state outside the declared range
// falsifies the supplied fixpoint and rejects the load (the verifier
// never trusts the annotation; it validates it).
func (v *Verifier) applyInvariants(st *VState, pc int) error {
	for i := range v.cfg.LoopInvariants {
		inv := &v.cfg.LoopInvariants[i]
		if inv.Insn != pc {
			continue
		}
		for _, rr := range inv.Regs {
			reg := v.reg(rr.Reg)
			if reg.Type != Scalar {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("loop invariant on R%d: register is %s, not a scalar",
						rr.Reg, reg.Type)}
			}
			if reg.UMin < rr.UMin || reg.UMax > rr.UMax {
				return &Error{InsnIdx: pc, Kind: CheckOther,
					Msg: fmt.Sprintf("loop invariant violated: R%d in [%d,%d] outside declared [%d,%d]",
						rr.Reg, reg.UMin, reg.UMax, rr.UMin, rr.UMax)}
			}
			// Widen to exactly the declared fixpoint. Sound: the declared
			// range contains the current one, and every later arrival
			// must re-pass the containment check above.
			widened := unknownScalar()
			widened.UMin, widened.UMax = rr.UMin, rr.UMax
			widened.Var = tnum.Range(rr.UMin, rr.UMax)
			widened.sync()
			*reg = widened
			v.emit(Event{Kind: EventWidened, PC: pc, Reg: rr.Reg, Lo: rr.UMin, Hi: rr.UMax})
		}
	}
	return nil
}
