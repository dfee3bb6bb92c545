package proofrpc

import (
	"fmt"
	"strings"

	"bcf/internal/bcfenc"
	"bcf/internal/bcferr"
)

// ParseAddr turns a user-facing endpoint string into a (network, addr)
// pair: "unix:/path" and "tcp:host:port" are explicit; a bare string
// containing a path separator is a Unix socket, anything else TCP.
func ParseAddr(s string) (network, addr string, err error) {
	switch {
	case s == "":
		return "", "", fmt.Errorf("proofrpc: empty address")
	case strings.HasPrefix(s, "unix:"):
		return "unix", strings.TrimPrefix(s, "unix:"), nil
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", strings.TrimPrefix(s, "tcp:"), nil
	case strings.ContainsAny(s, "/\\"):
		return "unix", s, nil
	default:
		return "tcp", s, nil
	}
}

// unavailable wraps a transport-level failure so that
// errors.Is(err, bcferr.ErrRemoteUnavailable) holds.
func unavailable(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, bcferr.ErrRemoteUnavailable)...)
}

// InterpretReply maps the reply frame to a TProve request to its
// outcome. transport=true marks failures of the wire (malformed or
// mismatched replies, undecodable proof bytes) as opposed to
// authoritative proving outcomes; transport errors match
// bcferr.ErrRemoteUnavailable. src is the daemon-reported proof source
// of a TProofOK reply. Every reply a remote prover accepts passes
// through here, so a byzantine daemon is classified in one place.
func InterpretReply(replyType uint32, body []byte) (proof []byte, src byte, err error, transport bool) {
	switch replyType {
	case TProofOK:
		if len(body) < 1 {
			return nil, 0, unavailable("proofrpc: empty proof reply"), true
		}
		src, proofBytes := body[0], body[1:]
		// Sanity-decode before handing the bytes to the kernel boundary:
		// a corrupted reply becomes a transport fault (failover, then
		// local fallback) instead of a guaranteed kernel-side rejection.
		// The kernel checker remains the soundness gate either way.
		if _, derr := bcfenc.DecodeProof(proofBytes); derr != nil {
			return nil, src, unavailable("proofrpc: undecodable proof from daemon: %v", derr), true
		}
		return append([]byte(nil), proofBytes...), src, nil, false

	case TCex:
		cex, derr := DecodeCexPayload(body)
		if derr != nil {
			return nil, 0, unavailable("proofrpc: bad cex payload: %v", derr), true
		}
		return nil, 0, bcferr.WithCounterexample(bcferr.New(bcferr.ClassUnsafe,
			"proofrpc: condition violated (counterexample found remotely)"), cex), false

	case TError:
		class, msg, derr := DecodeErrorPayload(body)
		if derr != nil {
			return nil, 0, unavailable("proofrpc: bad error payload: %v", derr), true
		}
		return nil, 0, bcferr.New(bcferr.Class(class), "proofrpc: remote: %s", msg), false

	default:
		return nil, 0, unavailable("proofrpc: unexpected %s reply to %s", TypeString(replyType), TypeString(TProve)), true
	}
}
