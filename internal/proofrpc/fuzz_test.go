package proofrpc

import (
	"bytes"
	"testing"

	"bcf/internal/obs"
)

// FuzzDecodeFrame hammers the frame decoder — the first parser any byte
// from the network hits on either side of the RPC boundary. Properties:
// never panic, never over-consume, and anything that decodes must
// re-encode to the identical bytes (the format has no redundancy to
// hide in).
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr *Frame) []byte {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(&Frame{Type: TPing}))
	f.Add(seed(&Frame{Type: TProve, ReqID: 7, Payload: []byte("condition bytes")}))
	f.Add(seed(&Frame{Type: TProofOK, ReqID: 1, Payload: []byte{SrcMem, 0, 1, 2, 3}}))
	f.Add(seed(&Frame{Type: TCex, ReqID: 2, Payload: EncodeCexPayload(map[uint32]uint64{1: 99})}))
	f.Add(seed(&Frame{Type: TError, ReqID: 3, Payload: EncodeErrorPayload(2, "boom")}))
	// Span stitching: a traced prove, then the fetch and its reply.
	f.Add(seed(&Frame{Type: TProve, ReqID: 4, Payload: []byte("traced condition"),
		Trace: obs.TraceContext{TraceHi: 1, TraceLo: 2, Span: 3, Flags: obs.FlagShipSpans}}))
	f.Add(seed(&Frame{Type: TSpans, ReqID: 5, Payload: EncodeSpansRequest(1, 2)}))
	f.Add(seed(&Frame{Type: TSpansOK, ReqID: 5, Payload: []byte(`{"events":[]}`)}))
	// Multiplexed traffic: high out-of-order request IDs on prove frames.
	f.Add(seed(&Frame{Type: TProve, ReqID: 1 << 40, Payload: []byte("mux condition")}))
	f.Add(seed(&Frame{Type: TProofOK, ReqID: (1 << 40) + 1, Payload: []byte{SrcCoalesced, 9, 8, 7}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x42}, HeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < HeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoding differs:\n got  %x\n want %x", re, data[:n])
		}
	})
}

// FuzzDecodeCexPayload covers the counterexample payload parser.
func FuzzDecodeCexPayload(f *testing.F) {
	f.Add(EncodeCexPayload(map[uint32]uint64{1: 2, 3: 4}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cex, err := DecodeCexPayload(data)
		if err != nil {
			return
		}
		re := EncodeCexPayload(cex)
		// Duplicate variable ids collapse in the map, so only the
		// canonical (deterministic) encoding must round-trip.
		if cex2, err := DecodeCexPayload(re); err != nil || len(cex2) != len(cex) {
			t.Fatalf("canonical cex encoding does not round-trip: %v", err)
		}
	})
}
