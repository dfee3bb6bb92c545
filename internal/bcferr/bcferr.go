// Package bcferr defines the structured error taxonomy of the BCF
// protocol. Every way a load can fail is assigned to one of a small set
// of classes, mirroring §6.2's rejection buckets and extending them with
// the protocol/robustness failures a hostile or broken user space can
// provoke. The classes survive wrapping (errors.Is / errors.As), so the
// loader, the kernel-side session and the evaluation harness all agree
// on how a failure is bucketed no matter how deep the cause is buried.
//
// The package is a leaf: it imports only the standard library, so any
// layer of the system (sat, solver, bcf, loader, eval) may depend on it
// without cycles.
package bcferr

import (
	"errors"
	"fmt"
)

// Class buckets a load failure by its root cause.
type Class uint8

// Error classes. The zero value ClassNone means "no error" (accepted) or
// an unclassified legacy error.
const (
	ClassNone Class = iota
	// ClassUnsafe: the program is genuinely unsafe (or unprovable): a
	// verifier safety check failed and refinement produced a
	// counterexample or was not applicable. This is the paper's
	// "correct rejection" bucket.
	ClassUnsafe
	// ClassProofRejected: user space submitted bytes that the kernel-side
	// checker refused — malformed encoding, a derivation that does not
	// establish the stored condition, or checker resource limits.
	ClassProofRejected
	// ClassSolverTimeout: the prover ran out of time or conflict budget
	// (deadline exceeded, SAT budget exhausted).
	ClassSolverTimeout
	// ClassResourceLimit: a protocol resource budget was exhausted — the
	// session's refinement-request cap (the one round cap) or its
	// boundary-byte accounting.
	ClassResourceLimit
	// ClassProtocol: the protocol itself broke down — user space
	// abandoning a pending condition (a dropped resume), an undecodable
	// condition, a session run twice, a remote-only prover whose
	// transport failed.
	ClassProtocol
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassUnsafe:
		return "unsafe"
	case ClassProofRejected:
		return "proof-rejected"
	case ClassSolverTimeout:
		return "solver-timeout"
	case ClassResourceLimit:
		return "resource-limit"
	case ClassProtocol:
		return "protocol"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes lists every failure class, in display order (for eval tables).
func Classes() []Class {
	return []Class{ClassUnsafe, ClassProofRejected, ClassSolverTimeout,
		ClassResourceLimit, ClassProtocol}
}

// Sentinels: errors.Is(err, bcferr.ErrSolverTimeout) holds for every
// error carrying that class anywhere in its chain.
var (
	ErrUnsafe        = &sentinel{ClassUnsafe}
	ErrProofRejected = &sentinel{ClassProofRejected}
	ErrSolverTimeout = &sentinel{ClassSolverTimeout}
	ErrResourceLimit = &sentinel{ClassResourceLimit}
	ErrProtocol      = &sentinel{ClassProtocol}
)

type sentinel struct{ class Class }

func (s *sentinel) Error() string { return "bcf: " + s.class.String() }

// Sentinel returns the errors.Is target for a class (nil for ClassNone).
func Sentinel(c Class) error {
	switch c {
	case ClassUnsafe:
		return ErrUnsafe
	case ClassProofRejected:
		return ErrProofRejected
	case ClassSolverTimeout:
		return ErrSolverTimeout
	case ClassResourceLimit:
		return ErrResourceLimit
	case ClassProtocol:
		return ErrProtocol
	}
	return nil
}

// E is an error carrying a Class. It wraps an underlying cause (which may
// be nil for leaf errors created with New).
type E struct {
	Class Class
	Err   error
}

func (e *E) Error() string {
	if e.Err == nil {
		return "bcf: " + e.Class.String()
	}
	return e.Err.Error()
}

func (e *E) Unwrap() error { return e.Err }

// Is makes every E match the sentinel of its class.
func (e *E) Is(target error) bool {
	s, ok := target.(*sentinel)
	return ok && s.class == e.Class
}

// New creates a classified leaf error.
func New(c Class, format string, args ...any) error {
	return &E{Class: c, Err: fmt.Errorf(format, args...)}
}

// Wrap attaches a class to err, preserving the chain. Wrapping nil
// returns nil; wrapping an error that already carries a class keeps the
// innermost (most specific) class visible to ClassOf but still matches
// both sentinels through the chain.
func Wrap(c Class, err error) error {
	if err == nil {
		return nil
	}
	return &E{Class: c, Err: err}
}

// ErrRemoteUnavailable marks transport-level failures of the remote
// proving service: dial errors, request timeouts, broken or corrupt
// frames. The loader treats any error matching this sentinel as "the
// daemon is unreachable" and falls back to the in-process prover;
// every other remote error is an authoritative proving outcome.
var ErrRemoteUnavailable = errors.New("bcf: remote prover unavailable")

// cexError attaches a falsifying assignment to an error without
// disturbing the class chain. It lets a prover (local or remote) report
// "the condition is violated, here is the model" through a single error
// value, so singleflight waiters and remote clients see the same
// counterexample as the goroutine that ran the solver.
type cexError struct {
	err error
	cex map[uint32]uint64
}

func (c *cexError) Error() string { return c.err.Error() }
func (c *cexError) Unwrap() error { return c.err }

// WithCounterexample wraps err with a falsifying assignment. A nil err
// or empty cex returns err unchanged.
func WithCounterexample(err error, cex map[uint32]uint64) error {
	if err == nil || len(cex) == 0 {
		return err
	}
	return &cexError{err: err, cex: cex}
}

// CounterexampleOf extracts the falsifying assignment carried anywhere
// in err's chain (nil when none).
func CounterexampleOf(err error) map[uint32]uint64 {
	var c *cexError
	if errors.As(err, &c) {
		return c.cex
	}
	return nil
}

// ClassOf reports the most specific (innermost) class found in err's
// chain. Unclassified non-nil errors report ClassNone; callers that know
// the context (e.g. "this came out of the verifier") apply their own
// default.
func ClassOf(err error) Class {
	found := ClassNone
	for err != nil {
		var e *E
		if !errors.As(err, &e) {
			break
		}
		found = e.Class
		err = e.Err
	}
	return found
}
