package verifier

import (
	"testing"

	"bcf/internal/ebpf"
)

// Tests for the per-program-type context and return models: the XDP
// packet-pointer model, the tracepoint read-only ctx, and the cgroup_skb
// return range.

func typedProg(t ebpf.ProgType, src string, maps ...*ebpf.MapSpec) *ebpf.Program {
	return &ebpf.Program{
		Name:  "test",
		Type:  t,
		Insns: ebpf.MustAssemble(src),
		Maps:  maps,
	}
}

// xdpParse bounds-checks 14 bytes of packet and reads the ethertype.
const xdpParse = `
	r2 = *(u32 *)(r1 +0)
	r3 = *(u32 *)(r1 +4)
	r4 = r2
	r4 += 14
	if r4 > r3 goto out
	r0 = *(u16 *)(r2 +12)
	exit
out:
	r0 = 2
	exit
`

func TestXDPPacketAccessBounded(t *testing.T) {
	mustAccept(t, typedProg(ebpf.ProgXDP, xdpParse))
}

func TestXDPPacketAccessUnbounded(t *testing.T) {
	// Same load, no comparison against data_end: range is 0.
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r0 = *(u16 *)(r2 +12)
		exit
	`), "invalid access to packet")
}

func TestXDPPacketAccessBeyondCheckedRange(t *testing.T) {
	// Checked 14 bytes, reads byte 14.
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 14
		if r4 > r3 goto out
		r0 = *(u8 *)(r2 +14)
		exit
	out:
		r0 = 2
		exit
	`), "invalid access to packet")
}

func TestXDPPacketNegativeOffset(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 14
		if r4 > r3 goto out
		r0 = *(u8 *)(r2 -1)
		exit
	out:
		r0 = 2
		exit
	`), "packet")
}

func TestXDPPacketWriteBounded(t *testing.T) {
	// XDP packets are writable within the checked range.
	mustAccept(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 14
		if r4 > r3 goto out
		*(u8 *)(r2 +0) = 0
	out:
		r0 = 2
		exit
	`))
}

// The range the fall-through learns is undone when the walk backtracks
// to the taken side, where the packet is shorter than 14 bytes.
func TestXDPPacketRangeUndoneOnBacktrack(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 14
		if r4 > r3 goto out
		r0 = *(u16 *)(r2 +12)
		exit
	out:
		r0 = *(u8 *)(r2 +0)
		exit
	`), "invalid access to packet")
}

func TestXDPPacketLessThanLearnsOnTaken(t *testing.T) {
	// The mirrored comparison: if end >= pkt+14 the taken edge is good.
	mustAccept(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 14
		if r4 <= r3 goto parse
		r0 = 2
		exit
	parse:
		r0 = *(u16 *)(r2 +12)
		exit
	`))
}

func TestXDPPacketEndDeref(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r3 = *(u32 *)(r1 +4)
		r0 = *(u8 *)(r3 +0)
		exit
	`), "pkt_end")
}

func TestXDPPacketEndArithmetic(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r3 = *(u32 *)(r1 +4)
		r3 += -14
		r0 = 2
		exit
	`), "pkt_end")
}

func TestXDPVariableOffsetPacketAccess(t *testing.T) {
	// A bounded variable offset inside the checked range is fine: check
	// 16 bytes, read at pkt + (var & 7) + 8, worst case byte 15.
	mustAccept(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 16
		if r4 > r3 goto out
		r5 = *(u8 *)(r2 +0)
		r5 &= 7
		r2 += r5
		r0 = *(u8 *)(r2 +8)
		exit
	out:
		r0 = 2
		exit
	`))
}

func TestXDPVariableOffsetPacketOverflow(t *testing.T) {
	// Same shape but the variable part can reach byte 16.
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r4 = r2
		r4 += 16
		if r4 > r3 goto out
		r5 = *(u8 *)(r2 +0)
		r5 &= 8
		r2 += r5
		r0 = *(u8 *)(r2 +8)
		exit
	out:
		r0 = 2
		exit
	`), "invalid access to packet")
}

func TestSocketFilterHasNoPacketFields(t *testing.T) {
	// ctx+0 is only a packet pointer for XDP; elsewhere it's a scalar
	// load, so dereferencing it is rejected.
	mustReject(t, typedProg(ebpf.ProgSocketFilter, `
		r2 = *(u32 *)(r1 +0)
		r0 = *(u8 *)(r2 +0)
		exit
	`), "")
}

func TestTracepointCtxReadOnly(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgTracepoint, `
		*(u64 *)(r1 +8) = 0
		r0 = 0
		exit
	`), "read-only")
}

func TestTracepointCtxReadStillAllowed(t *testing.T) {
	mustAccept(t, typedProg(ebpf.ProgTracepoint, `
		r0 = *(u64 *)(r1 +8)
		exit
	`))
}

func TestXDPCtxWriteAllowed(t *testing.T) {
	// Only tracepoint ctx is read-only; scalar ctx fields elsewhere
	// accept stores.
	mustAccept(t, typedProg(ebpf.ProgXDP, `
		*(u32 *)(r1 +16) = 0
		r0 = 2
		exit
	`))
}

func TestCgroupSkbReturnRangeConst(t *testing.T) {
	mustAccept(t, typedProg(ebpf.ProgCgroupSkb, `
		r0 = 1
		exit
	`))
	mustReject(t, typedProg(ebpf.ProgCgroupSkb, `
		r0 = 2
		exit
	`), "should have been in [0, 1]")
}

func TestCgroupSkbReturnRangeUnknown(t *testing.T) {
	// An unbounded ctx-loaded scalar cannot be proven in [0, 1].
	mustReject(t, typedProg(ebpf.ProgCgroupSkb, `
		r0 = *(u64 *)(r1 +0)
		exit
	`), "should have been in [0, 1]")
}

func TestCgroupSkbReturnRangeMasked(t *testing.T) {
	mustAccept(t, typedProg(ebpf.ProgCgroupSkb, `
		r0 = *(u64 *)(r1 +0)
		r0 &= 1
		exit
	`))
}

func TestCgroupSkbReturnPointer(t *testing.T) {
	mustReject(t, typedProg(ebpf.ProgCgroupSkb, `
		r0 = r10
		exit
	`), "must be a scalar")
}

func TestOtherTypesReturnUnconstrained(t *testing.T) {
	for _, pt := range []ebpf.ProgType{
		ebpf.ProgSocketFilter, ebpf.ProgXDP, ebpf.ProgTracepoint, ebpf.ProgSchedCLS,
	} {
		mustAccept(t, typedProg(pt, `
			r0 = 1000
			exit
		`))
	}
}

func TestXDPPacketRangePruning(t *testing.T) {
	// Two paths reach the same merge point: one bounds-checked (range
	// 14), one not (range 0). Whatever order the explorer visits them,
	// the unchecked path must not be pruned by the checked one's state —
	// the packet read past the merge is only safe on the checked path.
	mustReject(t, typedProg(ebpf.ProgXDP, `
		r2 = *(u32 *)(r1 +0)
		r3 = *(u32 *)(r1 +4)
		r5 = *(u32 *)(r1 +16)
		r4 = r2
		r4 += 14
		if r5 == 0 goto merge
		if r4 > r3 goto out
	merge:
		r0 = *(u8 *)(r2 +0)
		exit
	out:
		r0 = 2
		exit
	`), "invalid access to packet")
}
