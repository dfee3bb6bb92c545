package proofrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"strings"
	"testing"

	"bcf/internal/obs"
)

// Golden frames pin the wire format: any byte-level change to the
// header layout, CRC polynomial or field order breaks these, which is
// exactly the point — the daemon and its clients upgrade in lockstep.
// Version 5 layout: magic | version | type | flags | reqid u64 | len |
// crc, with an optional 24-byte trace block between header and payload,
// and on a reply an optional spans section (u32 length | JSON) opening
// the payload.
func TestFrameGoldens(t *testing.T) {
	cases := []struct {
		name   string
		frame  Frame
		golden string
	}{
		{"prove", Frame{Type: TProve, ReqID: 7, Payload: []byte("hello")},
			"424346520500000001000000000000000700000000000000050000004cbb719a68656c6c6f"},
		{"proof-ok", Frame{Type: TProofOK, ReqID: 0xdeadbeefcafe, Payload: []byte{SrcDisk, 1, 2, 3}},
			"42434652050000000200000000000000fecaefbeadde0000040000002239546602010203"},
		{"traced-prove", Frame{Type: TProve, ReqID: 7, Payload: []byte("hello"),
			Trace: obs.TraceContext{TraceHi: 0x1111, TraceLo: 0x2222, Span: 0x3333}},
			"424346520500000001000000010000000700000000000000050000004cbb719a" +
				"111100000000000022220000000000003333000000000000" +
				"68656c6c6f"},
		{"spans-reply", Frame{Type: TProofOK, ReqID: 7, Payload: []byte{SrcSolved, 1}, Spans: []byte("{}")},
			"42434652050000000200000002000000070000000000000008000000afd5f7b8" +
				"020000007b7d" + "0001"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EncodeFrame(&tc.frame)
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got) != tc.golden {
				t.Fatalf("encoding drifted:\n got  %x\n want %s", got, tc.golden)
			}
			dec, n, err := DecodeFrame(got)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(got) {
				t.Fatalf("consumed %d of %d bytes", n, len(got))
			}
			if dec.Type != tc.frame.Type || dec.ReqID != tc.frame.ReqID || !bytes.Equal(dec.Payload, tc.frame.Payload) ||
				dec.Trace != tc.frame.Trace || !bytes.Equal(dec.Spans, tc.frame.Spans) {
				t.Fatalf("round trip: got %+v, want %+v", dec, tc.frame)
			}
		})
	}
}

func TestFrameTraceContextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := &Frame{Type: TProve, ReqID: 9, Payload: []byte("cond"),
		Trace: obs.TraceContext{TraceHi: 0xaaa, TraceLo: 0xbbb, Span: 0xccc}}
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != want.Trace || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("traced round trip: got %+v, want %+v", got, want)
	}
	// Untraced frames stay exactly HeaderLen+payload — no extension cost.
	plain, err := EncodeFrame(&Frame{Type: TProve, Payload: []byte("cond")})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != HeaderLen+4 {
		t.Fatalf("untraced prove frame is %d bytes, want %d", len(plain), HeaderLen+4)
	}
}

func TestFrameReadWriteRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := &Frame{Type: TProve, ReqID: 42, Payload: bytes.Repeat([]byte{0xab}, 4096)}
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatal("round trip mismatch")
	}
}

// mutate returns a valid encoded frame with one header field rewritten.
func mutate(t *testing.T, off int, v uint32) []byte {
	t.Helper()
	b, err := EncodeFrame(&Frame{Type: TProve, ReqID: 1, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[off:], v)
	return b
}

func TestDecodeFrameRejections(t *testing.T) {
	valid, err := EncodeFrame(&Frame{Type: TProve, ReqID: 1, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"empty", nil, "truncated header"},
		{"short-header", valid[:HeaderLen-1], "truncated header"},
		{"truncated-payload", valid[:len(valid)-3], "truncated TProve frame"},
		{"bad-magic", mutate(t, 0, 0x12345678), "bad magic"},
		{"bad-version", mutate(t, 4, 99), "unsupported version"},
		{"previous-version", mutate(t, 4, FrameVersion-1), "unsupported version"},
		{"zero-type", mutate(t, 8, 0), "unknown frame type"},
		{"huge-type", mutate(t, 8, 1000), "unknown frame type"},
		{"unknown-flags", mutate(t, 12, 1<<7), "unknown frame flags"},
		{"oversized-len", mutate(t, 24, MaxPayload+1), "exceeds limit"},
		{"crc-mismatch", mutate(t, 28, 0), "CRC mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.buf)
			if err == nil {
				t.Fatal("decode accepted a bad frame")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// A flipped payload bit must be caught by the CRC.
	flipped := append([]byte(nil), valid...)
	flipped[HeaderLen+2] ^= 0x40
	if _, _, err := DecodeFrame(flipped); err == nil {
		t.Fatal("payload corruption not detected")
	}

	// Type names, not just codes, in decode errors (readable journals).
	_, _, err = DecodeFrame(valid[:len(valid)-3])
	if err == nil || !strings.Contains(err.Error(), "TProve") {
		t.Fatalf("decode error should name the frame type: %v", err)
	}

	// A trace flag with an all-zero trace block is rejected: the flag
	// promises a context, zero means none.
	traced, err := EncodeFrame(&Frame{Type: TProve, ReqID: 1, Payload: []byte("p"),
		Trace: obs.TraceContext{TraceHi: 1, TraceLo: 2, Span: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := HeaderLen; i < HeaderLen+24; i++ {
		traced[i] = 0 // zero the trace ids and span
	}
	if _, _, err := DecodeFrame(traced); err == nil || !strings.Contains(err.Error(), "all-zero trace context") {
		t.Fatalf("err = %v, want all-zero trace context rejection", err)
	}
	// Truncation inside the trace block is caught.
	ok, err := EncodeFrame(&Frame{Type: TProve, ReqID: 1, Payload: []byte("p"),
		Trace: obs.TraceContext{TraceHi: 1, TraceLo: 2, Span: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(ok[:HeaderLen+10]); err == nil {
		t.Fatal("accepted a frame truncated mid-trace-block")
	}
}

func TestEncodeFrameRejections(t *testing.T) {
	if _, err := EncodeFrame(&Frame{Type: 0}); err == nil {
		t.Fatal("encoded a zero-type frame")
	}
	if _, err := EncodeFrame(&Frame{Type: maxFrameType + 1}); err == nil {
		t.Fatal("encoded an unknown-type frame")
	}
	if _, err := EncodeFrame(&Frame{Type: TProve, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("encoded an oversized frame")
	}
}

func TestReadFrameOversizedHeaderStopsEarly(t *testing.T) {
	// An adversarial length field must be rejected before the payload is
	// allocated or read.
	b := mutate(t, 24, MaxPayload+1)
	_, err := ReadFrame(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want payload limit rejection", err)
	}
}

func TestCexPayloadRoundTrip(t *testing.T) {
	cex := map[uint32]uint64{3: 0xdeadbeef, 1: 42, 2: 1 << 60}
	buf := EncodeCexPayload(cex)
	// Deterministic: ids ascend regardless of map order.
	if buf2 := EncodeCexPayload(map[uint32]uint64{2: 1 << 60, 1: 42, 3: 0xdeadbeef}); !bytes.Equal(buf, buf2) {
		t.Fatal("cex encoding is not deterministic")
	}
	got, err := DecodeCexPayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cex) {
		t.Fatalf("got %d entries, want %d", len(got), len(cex))
	}
	for id, v := range cex {
		if got[id] != v {
			t.Fatalf("cex[%d] = %d, want %d", id, got[id], v)
		}
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, append(buf, 0)} {
		if _, err := DecodeCexPayload(bad); err == nil {
			t.Fatalf("accepted bad cex payload %x", bad)
		}
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	buf := EncodeErrorPayload(3, "solver timed out")
	class, msg, err := DecodeErrorPayload(buf)
	if err != nil || class != 3 || msg != "solver timed out" {
		t.Fatalf("got class=%d msg=%q err=%v", class, msg, err)
	}
	if _, _, err := DecodeErrorPayload([]byte{1}); err == nil {
		t.Fatal("accepted truncated error payload")
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in, network, addr string
		wantErr           bool
	}{
		{"unix:/tmp/bcfd.sock", "unix", "/tmp/bcfd.sock", false},
		{"tcp:127.0.0.1:9090", "tcp", "127.0.0.1:9090", false},
		{"/var/run/bcfd.sock", "unix", "/var/run/bcfd.sock", false},
		{"localhost:9090", "tcp", "localhost:9090", false},
		{"", "", "", true},
	}
	for _, tc := range cases {
		network, addr, err := ParseAddr(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseAddr(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil || network != tc.network || addr != tc.addr {
			t.Fatalf("ParseAddr(%q) = %q %q %v, want %q %q", tc.in, network, addr, err, tc.network, tc.addr)
		}
	}
}

// spansReply encodes a TProofOK reply carrying spans, with the spans
// section's length word set to n and the CRC recomputed, so only the
// section check can reject it.
func spansReply(t *testing.T, n uint32) []byte {
	t.Helper()
	b, err := EncodeFrame(&Frame{Type: TProofOK, ReqID: 1, Payload: []byte{SrcSolved, 1}, Spans: []byte("{}")})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[HeaderLen:], n)
	binary.LittleEndian.PutUint32(b[28:], crc32.Checksum(b[HeaderLen:], crcTable))
	return b
}

// TestSpansPayloadRoundTrip pins the spans section of a reply: it
// survives a write and read beside the payload, which InterpretReply
// alone sees; the payload CRC covers it; it counts toward MaxPayload;
// only replies may carry it; and its length must fit the payload.
func TestSpansPayloadRoundTrip(t *testing.T) {
	spans := []byte(`{"start_unix_nano":1,"events":[]}`)
	for _, typ := range []uint32{TProofOK, TCex, TError} {
		var buf bytes.Buffer
		want := &Frame{Type: typ, ReqID: 3, Payload: []byte("body"), Spans: spans}
		if err := WriteFrame(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Spans, spans) || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: spans %q payload %q, want %q %q", TypeString(typ), got.Spans, got.Payload, spans, want.Payload)
		}
	}

	b, err := EncodeFrame(&Frame{Type: TProofOK, Payload: []byte{SrcSolved}, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	b[HeaderLen+5] ^= 0x40 // inside the JSON
	if _, _, err := DecodeFrame(b); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("corrupt spans section: err = %v, want CRC mismatch", err)
	}
	if _, err := EncodeFrame(&Frame{Type: TProofOK, Payload: make([]byte, MaxPayload-4), Spans: []byte("{}")}); err == nil {
		t.Fatal("spans section did not count toward MaxPayload")
	}
	if _, err := EncodeFrame(&Frame{Type: TProve, Spans: spans}); err == nil {
		t.Fatal("encoded spans on a request")
	}

	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"on-request", mutate(t, 12, FlagSpans), "spans flag on a TProve request"},
		{"empty", spansReply(t, 0), "empty spans section"},
		{"overrun", spansReply(t, 5), "does not fit"},
		{"huge", spansReply(t, 1<<31), "does not fit"},
	} {
		if _, _, err := DecodeFrame(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The section fills the payload exactly: legal, with an empty body.
	if f, _, err := DecodeFrame(spansReply(t, 4)); err != nil || len(f.Spans) != 4 || len(f.Payload) != 0 {
		t.Fatalf("section filling the payload: %+v, %v", f, err)
	}
}

func TestTypeString(t *testing.T) {
	for typ := uint32(1); typ <= maxFrameType; typ++ {
		if s := TypeString(typ); strings.HasPrefix(s, "unknown") {
			t.Fatalf("type %d has no name", typ)
		}
	}
	if s := TypeString(999); !strings.Contains(s, "999") {
		t.Fatalf("unknown type should include the code: %q", s)
	}
}
