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
// header word and the optional trace-context block; version 3 dropped
// the fuzz-campaign types 9–11, renumbering TSpans/TSpansOK to 9/10;
// version 4 dropped THealth/THealthOK, renumbering TSpans/TSpansOK to
// 7/8.
const FrameVersion = 4

// Frame types.
const (
	// TPing / TPong are the liveness handshake.
	TPing uint32 = iota + 1
	TPong
	// TProve carries a bcfenc-encoded condition to the daemon.
	TProve
	// TProofOK answers a TProve: one source byte (Src*) followed by the
	// bcfenc-encoded proof.
	TProofOK
	// TCex answers a TProve whose condition is falsifiable: a count and
	// (var u32, value u64) pairs of the falsifying assignment.
	TCex
	// TError answers a TProve that failed: a bcferr class word followed
	// by the error message.
	TError
	// TSpans asks a daemon to ship back the spans it recorded under one
	// trace ID (the payload: trace hi u64 | trace lo u64). Clients send
	// it after a traced run so one Perfetto file can stitch both sides of
	// the wire.
	TSpans
	// TSpansOK answers a TSpans: a JSON-encoded obs.ExportedTrace.
	TSpansOK

	maxFrameType = TSpansOK
)

// TypeString names a frame type for error messages and journal entries
// (decode/dispatch failures quoting only a numeric code are unreadable
// in chaos-soak output).
func TypeString(typ uint32) string {
	switch typ {
	case TPing:
		return "TPing"
	case TPong:
		return "TPong"
	case TProve:
		return "TProve"
	case TProofOK:
		return "TProofOK"
	case TCex:
		return "TCex"
	case TError:
		return "TError"
	case TSpans:
		return "TSpans"
	case TSpansOK:
		return "TSpansOK"
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

	knownFlags = FlagTraceContext
)

// traceBlockLen is the trace-context block size in bytes:
// trace id hi u64 | trace id lo u64 | parent span id u64 | trace flags u32.
const traceBlockLen = 28

// Frame is one protocol message. Trace, when valid, is the sender's
// trace context; it rides an optional header extension so untraced
// traffic pays nothing.
type Frame struct {
	Type    uint32
	ReqID   uint64
	Payload []byte
	Trace   obs.TraceContext
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// extLen returns the length of f's header extensions.
func (f *Frame) extLen() int {
	if f.Trace.Valid() {
		return traceBlockLen
	}
	return 0
}

// AppendFrame serializes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if f.Type == 0 || f.Type > maxFrameType {
		return nil, fmt.Errorf("proofrpc: unknown frame type %d", f.Type)
	}
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("proofrpc: payload %d bytes exceeds limit %d", len(f.Payload), MaxPayload)
	}
	var flags uint32
	if f.Trace.Valid() {
		flags |= FlagTraceContext
	}
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], FrameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], FrameVersion)
	binary.LittleEndian.PutUint32(hdr[8:], f.Type)
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], f.ReqID)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(f.Payload)))
	binary.LittleEndian.PutUint32(hdr[28:], crc32.Checksum(f.Payload, crcTable))
	dst = append(dst, hdr[:]...)
	if f.Trace.Valid() {
		var tb [traceBlockLen]byte
		binary.LittleEndian.PutUint64(tb[0:], f.Trace.TraceHi)
		binary.LittleEndian.PutUint64(tb[8:], f.Trace.TraceLo)
		binary.LittleEndian.PutUint64(tb[16:], f.Trace.Span)
		binary.LittleEndian.PutUint32(tb[24:], f.Trace.Flags)
		dst = append(dst, tb[:]...)
	}
	return append(dst, f.Payload...), nil
}

// EncodeFrame serializes one frame.
func EncodeFrame(f *Frame) ([]byte, error) { return AppendFrame(nil, f) }

// decodeTraceBlock parses the trace-context block at buf[0:].
func decodeTraceBlock(buf []byte) obs.TraceContext {
	return obs.TraceContext{
		TraceHi: binary.LittleEndian.Uint64(buf[0:]),
		TraceLo: binary.LittleEndian.Uint64(buf[8:]),
		Span:    binary.LittleEndian.Uint64(buf[16:]),
		Flags:   binary.LittleEndian.Uint32(buf[24:]),
	}
}

// DecodeFrame parses one frame from the front of buf, returning the
// frame and the number of bytes consumed. It is strict: bad magic,
// unknown version, type or flags, oversized payloads, truncation and
// CRC mismatches are all errors. The returned payload aliases buf.
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
	var tc obs.TraceContext
	if extLen > 0 {
		tc = decodeTraceBlock(buf[HeaderLen:])
		if !tc.Valid() {
			return nil, 0, fmt.Errorf("proofrpc: %s frame carries an all-zero trace context", TypeString(typ))
		}
	}
	payload := buf[HeaderLen+extLen : total]
	if c := crc32.Checksum(payload, crcTable); c != binary.LittleEndian.Uint32(buf[28:]) {
		return nil, 0, fmt.Errorf("proofrpc: payload CRC mismatch in %s frame", TypeString(typ))
	}
	return &Frame{
		Type:    typ,
		ReqID:   binary.LittleEndian.Uint64(buf[16:]),
		Payload: payload,
		Trace:   tc,
	}, total, nil
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

// spansPayloadLen is the fixed TSpans payload size: trace hi u64 |
// trace lo u64.
const spansPayloadLen = 16

// EncodeSpansRequest serializes a TSpans payload asking for the spans
// recorded under one trace ID.
func EncodeSpansRequest(hi, lo uint64) []byte {
	buf := make([]byte, spansPayloadLen)
	binary.LittleEndian.PutUint64(buf[0:], hi)
	binary.LittleEndian.PutUint64(buf[8:], lo)
	return buf
}

// DecodeSpansRequest parses a TSpans payload.
func DecodeSpansRequest(buf []byte) (hi, lo uint64, err error) {
	if len(buf) != spansPayloadLen {
		return 0, 0, fmt.Errorf("proofrpc: %s payload %d bytes, want %d", TypeString(TSpans), len(buf), spansPayloadLen)
	}
	return binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:]), nil
}

// pongPayloadLen is the fixed TPong payload size: daemon wall clock,
// UnixNano i64. Clients estimate the client↔daemon clock offset from it
// (offset ≈ daemonNano − (sendNano + RTT/2)) when stitching shipped-back
// spans onto the local timeline.
const pongPayloadLen = 8

// EncodePongPayload serializes a TPong payload carrying the daemon's
// wall clock.
func EncodePongPayload(unixNano int64) []byte {
	buf := make([]byte, pongPayloadLen)
	binary.LittleEndian.PutUint64(buf, uint64(unixNano))
	return buf
}

// DecodePongPayload parses a TPong payload. An empty payload (a
// minimal responder) decodes as 0: no clock information.
func DecodePongPayload(buf []byte) (int64, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if len(buf) != pongPayloadLen {
		return 0, fmt.Errorf("proofrpc: %s payload %d bytes, want %d", TypeString(TPong), len(buf), pongPayloadLen)
	}
	return int64(binary.LittleEndian.Uint64(buf)), nil
}
