package loader

import (
	"fmt"

	"bcf/internal/verifier"
)

// DebugLog is the verifier log: a verifier.Observer that renders each
// walk event as one line, in walk order. The walk itself formats
// nothing; a load without a DebugLog pays nothing for it.
type DebugLog struct {
	Lines []string
}

// Observe appends ev's line.
func (d *DebugLog) Observe(_ any, ev verifier.Event) any {
	var line string
	switch ev.Kind {
	case verifier.EventInsn:
		line = fmt.Sprintf("%d: %s", ev.PC, ev.Insn)
	case verifier.EventPruned:
		line = fmt.Sprintf("%d: pruned", ev.PC)
	case verifier.EventPathOK:
		line = fmt.Sprintf("%d: exit, path ok", ev.PC)
	case verifier.EventWidened:
		line = fmt.Sprintf("%d: widened R%d to declared fixpoint [%d,%d]", ev.PC, ev.Reg, ev.Lo, ev.Hi)
	case verifier.EventRefined:
		line = fmt.Sprintf("%d: refined R%d to [%d, %d]", ev.PC, ev.Reg, ev.Lo, ev.Hi)
	case verifier.EventInfeasible:
		line = fmt.Sprintf("%d: path proven infeasible, pruned", ev.PC)
	case verifier.EventRefineFailed:
		line = fmt.Sprintf("%d: refinement failed: %v", ev.PC, ev.Err)
	}
	d.Lines = append(d.Lines, line)
	return nil
}
