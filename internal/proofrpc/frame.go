// Package proofrpc is the wire protocol of the remote proving service:
// a versioned, length-prefixed frame format carried over TCP or Unix
// sockets, plus the multiplexed connection and reply classifier that
// internal/prooffleet (the one remote proving client) builds on.
//
// The protocol deliberately mirrors the kernel↔user boundary discipline
// of the BCF design: payloads are the exact internal/bcfenc condition
// and proof messages (so the daemon and the loader exercise the same
// encoders the kernel boundary does), frames carry a CRC so a corrupted
// transport is detected before a payload is parsed, and the decoder is
// strict — size limits, version pinning, no trailing garbage — and
// fuzzable (FuzzDecodeFrame). None of this is trusted by the kernel:
// whatever proof bytes come back over the wire still go through the
// kernel-side checker, which is the only soundness gate.
package proofrpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"bcf/internal/obs"
)

// FrameMagic opens every frame ("BCFR" little-endian).
const FrameMagic = 0x52464342

// FrameVersion is the protocol version; frames carrying any other
// version are rejected (no negotiation — the fleet upgrades in lockstep
// with the wire format, like bcfenc.Version). Version 2 added the flags
// header word and the optional trace-context block; version 5 dropped
// the ping and span-fetch types, renumbering the rest 1–4, dropped the
// trace block's flags word and added the spans section of a reply.
const FrameVersion = 5

// Frame types. TProve is the one request; the other three answer it.
const (
	// TProve carries a bcfenc-encoded condition to the daemon.
	TProve uint32 = iota + 1
	// TProofOK answers a TProve: one source byte (Src*) followed by the
	// bcfenc-encoded proof.
	TProofOK
	// TCex answers a TProve whose condition is falsifiable: a count and
	// (var u32, value u64) pairs of the falsifying assignment.
	TCex
	// TError answers a TProve that failed: a bcferr class word followed
	// by the error message.
	TError

	maxFrameType = TError
)

// TypeString names a frame type for error messages and journal entries
// (decode/dispatch failures quoting only a numeric code are unreadable
// in chaos-soak output).
func TypeString(typ uint32) string {
	switch typ {
	case TProve:
		return "TProve"
	case TProofOK:
		return "TProofOK"
	case TCex:
		return "TCex"
	case TError:
		return "TError"
	}
	return fmt.Sprintf("unknown(%d)", typ)
}

// Proof sources reported in the first payload byte of a TProofOK reply,
// so clients can observe (and tests can assert) where a proof came from.
const (
	SrcSolved    byte = iota // the daemon ran the solver
	SrcMem                   // served from the daemon's in-memory LRU
	SrcDisk                  // served from the daemon's disk store
	SrcCoalesced             // piggybacked on a concurrent identical obligation
)

// SrcString names a proof source (metrics labels).
func SrcString(src byte) string {
	switch src {
	case SrcSolved:
		return "solved"
	case SrcMem:
		return "mem"
	case SrcDisk:
		return "disk"
	case SrcCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// MaxPayload bounds a frame payload. Conditions and proofs are
// page-scale (§6.3: 99.4% of proofs under 4 KiB, tail to ~46 KB); 16 MiB
// leaves orders of magnitude of headroom while keeping a hostile peer
// from forcing unbounded allocations.
const MaxPayload = 1 << 24

// HeaderLen is the fixed frame header size in bytes:
// magic u32 | version u32 | type u32 | flags u32 | request id u64 |
// payload len u32 | payload crc32 u32.
const HeaderLen = 32

// Frame flags (header word at offset 12). The decoder is strict:
// unknown flag bits are an error, so new extensions ride a version
// bump, never silent tolerance.
const (
	// FlagTraceContext marks a frame carrying a trace-context block
	// between the header and the payload: the caller's distributed-trace
	// position, under which the server records its own spans.
	FlagTraceContext uint32 = 1 << 0
	// FlagSpans marks a reply whose payload opens with a spans section:
	// a u32 length and that many bytes of JSON obs.ExportedTrace, the
	// spans the daemon recorded for a traced request. The section is
	// inside the payload, so the CRC and MaxPayload cover it.
	FlagSpans uint32 = 1 << 1

	knownFlags = FlagTraceContext | FlagSpans
)

// traceBlockLen is the trace-context block size in bytes:
// trace id hi u64 | trace id lo u64 | parent span id u64.
const traceBlockLen = 24

// Frame is one protocol message. Trace, when valid, is the sender's
// trace context; it rides an optional header extension so untraced
// traffic pays nothing. Spans, on a reply only, is the JSON
// obs.ExportedTrace of the request's daemon-side spans; Payload is the
// rest of the payload, what the frame type defines.
type Frame struct {
	Type    uint32
	ReqID   uint64
	Payload []byte
	Trace   obs.TraceContext
	Spans   []byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame serializes one frame.
func EncodeFrame(f *Frame) ([]byte, error) {
	if f.Type == 0 || f.Type > maxFrameType {
		return nil, fmt.Errorf("proofrpc: unknown frame type %d", f.Type)
	}
	var flags uint32
	extLen, plen := 0, len(f.Payload)
	if f.Trace.Valid() {
		flags |= FlagTraceContext
		extLen = traceBlockLen
	}
	if len(f.Spans) > 0 {
		if f.Type == TProve {
			return nil, fmt.Errorf("proofrpc: spans on a %s request", TypeString(f.Type))
		}
		flags |= FlagSpans
		plen += 4 + len(f.Spans)
	}
	if plen > MaxPayload {
		return nil, fmt.Errorf("proofrpc: payload %d bytes exceeds limit %d", plen, MaxPayload)
	}
	buf := make([]byte, HeaderLen, HeaderLen+extLen+plen)
	binary.LittleEndian.PutUint32(buf[0:], FrameMagic)
	binary.LittleEndian.PutUint32(buf[4:], FrameVersion)
	binary.LittleEndian.PutUint32(buf[8:], f.Type)
	binary.LittleEndian.PutUint32(buf[12:], flags)
	binary.LittleEndian.PutUint64(buf[16:], f.ReqID)
	binary.LittleEndian.PutUint32(buf[24:], uint32(plen))
	if extLen > 0 {
		buf = binary.LittleEndian.AppendUint64(buf, f.Trace.TraceHi)
		buf = binary.LittleEndian.AppendUint64(buf, f.Trace.TraceLo)
		buf = binary.LittleEndian.AppendUint64(buf, f.Trace.Span)
	}
	if flags&FlagSpans != 0 {
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(f.Spans))), f.Spans...)
	}
	buf = append(buf, f.Payload...)
	binary.LittleEndian.PutUint32(buf[28:], crc32.Checksum(buf[HeaderLen+extLen:], crcTable))
	return buf, nil
}

// DecodeFrame parses one frame from the front of buf, returning the
// frame and the number of bytes consumed. It is strict: bad magic,
// unknown version, type or flags, spans on a request, oversized
// payloads, truncation, a spans section that does not fit its payload
// and CRC mismatches are all errors. The returned payload and spans
// alias buf.
func DecodeFrame(buf []byte) (*Frame, int, error) {
	if len(buf) < HeaderLen {
		return nil, 0, fmt.Errorf("proofrpc: truncated header (%d bytes)", len(buf))
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != FrameMagic {
		return nil, 0, fmt.Errorf("proofrpc: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != FrameVersion {
		return nil, 0, fmt.Errorf("proofrpc: unsupported version %d", v)
	}
	typ := binary.LittleEndian.Uint32(buf[8:])
	if typ == 0 || typ > maxFrameType {
		return nil, 0, fmt.Errorf("proofrpc: unknown frame type %d", typ)
	}
	flags := binary.LittleEndian.Uint32(buf[12:])
	if flags&^knownFlags != 0 {
		return nil, 0, fmt.Errorf("proofrpc: unknown frame flags %#x in %s frame", flags&^knownFlags, TypeString(typ))
	}
	if flags&FlagSpans != 0 && typ == TProve {
		return nil, 0, fmt.Errorf("proofrpc: spans flag on a %s request", TypeString(typ))
	}
	extLen := 0
	if flags&FlagTraceContext != 0 {
		extLen = traceBlockLen
	}
	plen := binary.LittleEndian.Uint32(buf[24:])
	if plen > MaxPayload {
		return nil, 0, fmt.Errorf("proofrpc: payload %d bytes exceeds limit %d in %s frame", plen, MaxPayload, TypeString(typ))
	}
	total := HeaderLen + extLen + int(plen)
	if len(buf) < total {
		return nil, 0, fmt.Errorf("proofrpc: truncated %s frame (%d of %d bytes)", TypeString(typ), len(buf)-HeaderLen, extLen+int(plen))
	}
	fr := &Frame{Type: typ, ReqID: binary.LittleEndian.Uint64(buf[16:])}
	if extLen > 0 {
		fr.Trace = obs.TraceContext{
			TraceHi: binary.LittleEndian.Uint64(buf[HeaderLen:]),
			TraceLo: binary.LittleEndian.Uint64(buf[HeaderLen+8:]),
			Span:    binary.LittleEndian.Uint64(buf[HeaderLen+16:]),
		}
		if !fr.Trace.Valid() {
			return nil, 0, fmt.Errorf("proofrpc: %s frame carries an all-zero trace context", TypeString(typ))
		}
	}
	payload := buf[HeaderLen+extLen : total]
	if c := crc32.Checksum(payload, crcTable); c != binary.LittleEndian.Uint32(buf[28:]) {
		return nil, 0, fmt.Errorf("proofrpc: payload CRC mismatch in %s frame", TypeString(typ))
	}
	if flags&FlagSpans != 0 {
		if len(payload) < 4 {
			return nil, 0, fmt.Errorf("proofrpc: %s frame too short for its spans section", TypeString(typ))
		}
		n := binary.LittleEndian.Uint32(payload)
		if n == 0 {
			// Refused like an all-zero trace context: the flag promises spans.
			return nil, 0, fmt.Errorf("proofrpc: %s frame has an empty spans section", TypeString(typ))
		}
		if uint64(n) > uint64(len(payload)-4) {
			return nil, 0, fmt.Errorf("proofrpc: %s spans section of %d bytes does not fit its %d-byte payload", TypeString(typ), n, len(payload))
		}
		fr.Spans, payload = payload[4:4+n], payload[4+n:]
	}
	fr.Payload = payload
	return fr, total, nil
}

// WriteFrame serializes f to w.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from r, enforcing the same limits
// as DecodeFrame before allocating the payload.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	flags := binary.LittleEndian.Uint32(hdr[12:])
	if flags&^knownFlags != 0 {
		return nil, fmt.Errorf("proofrpc: unknown frame flags %#x", flags&^knownFlags)
	}
	extLen := 0
	if flags&FlagTraceContext != 0 {
		extLen = traceBlockLen
	}
	plen := binary.LittleEndian.Uint32(hdr[24:])
	if plen > MaxPayload {
		return nil, fmt.Errorf("proofrpc: payload %d bytes exceeds limit %d", plen, MaxPayload)
	}
	buf := make([]byte, HeaderLen+extLen+int(plen))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		return nil, fmt.Errorf("proofrpc: reading payload: %w", err)
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}

// ---- typed payloads ----

// EncodeCexPayload serializes a falsifying assignment for a TCex frame.
// The encoding is deterministic (ascending variable id), so identical
// counterexamples produce identical frames.
func EncodeCexPayload(cex map[uint32]uint64) []byte {
	ids := make([]uint32, 0, len(cex))
	for id := range cex {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; cex maps are tiny
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	buf := make([]byte, 4, 4+12*len(ids))
	binary.LittleEndian.PutUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		var ent [12]byte
		binary.LittleEndian.PutUint32(ent[0:], id)
		binary.LittleEndian.PutUint64(ent[4:], cex[id])
		buf = append(buf, ent[:]...)
	}
	return buf
}

// DecodeCexPayload parses a TCex payload.
func DecodeCexPayload(buf []byte) (map[uint32]uint64, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("proofrpc: truncated cex payload")
	}
	n := binary.LittleEndian.Uint32(buf)
	if int64(len(buf)) != 4+12*int64(n) {
		return nil, fmt.Errorf("proofrpc: cex payload length mismatch")
	}
	cex := make(map[uint32]uint64, n)
	for i := 0; i < int(n); i++ {
		off := 4 + 12*i
		cex[binary.LittleEndian.Uint32(buf[off:])] = binary.LittleEndian.Uint64(buf[off+4:])
	}
	return cex, nil
}

// EncodeErrorPayload serializes a classified error for a TError frame.
func EncodeErrorPayload(class uint32, msg string) []byte {
	buf := make([]byte, 4, 4+len(msg))
	binary.LittleEndian.PutUint32(buf, class)
	return append(buf, msg...)
}

// DecodeErrorPayload parses a TError payload.
func DecodeErrorPayload(buf []byte) (class uint32, msg string, err error) {
	if len(buf) < 4 {
		return 0, "", fmt.Errorf("proofrpc: truncated error payload")
	}
	return binary.LittleEndian.Uint32(buf), string(buf[4:]), nil
}
