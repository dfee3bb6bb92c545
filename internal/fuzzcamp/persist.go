package fuzzcamp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"bcf/internal/ebpf"
)

// Cross-process corpus persistence: a campaign can save its coverage
// state (bitmap, corpus programs, round/exec counters) to a directory
// and a later process can resume from it, so nightly runs keep growing
// coverage instead of restarting cold. Nothing in the file is trusted
// for soundness: the decoder is strict (size caps, no trailing bytes),
// programs are structurally validated on load and the bitmap is only
// ever a mutation-scheduling signal.
//
// Resuming with the same seed and per-run budget is equivalent to one
// longer uninterrupted campaign: the saved round counter keeps the
// per-item seed stream moving forward, and finished counts rounds
// relative to the resume point so each run gets its full budget.

// corpusStateFile is the single state file inside a -corpus-dir.
const corpusStateFile = "corpus.state"

const (
	corpusMagic   = 0x5a464342 // "BCFZ" little-endian
	corpusVersion = 1
	// maxStateFile bounds how much of an untrusted state file we will
	// read: bitmap + counters + maxCorpus programs at the decoder's own
	// size caps fit comfortably.
	maxStateFile = 1 << 24
)

// SaveState writes the campaign's corpus and coverage state into dir
// (created if needed). The write is staged through a temp file and
// renamed, so a crash mid-save leaves the previous state intact.
func (c *Campaign) SaveState(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dst := make([]byte, 0, BitmapWireLen+len(c.corpus)*256)
	dst = appendU32(dst, corpusMagic)
	dst = appendU32(dst, corpusVersion)
	dst = appendU64(dst, uint64(c.opt.Seed))
	dst = appendU32(dst, uint32(c.round))
	dst = appendU64(dst, uint64(c.execs))
	dst = appendU64(dst, uint64(c.accepted))
	dst = c.cov.AppendTo(dst)
	dst = appendU32(dst, uint32(len(c.covHist)))
	for _, h := range c.covHist {
		dst = appendU32(dst, uint32(h))
	}
	dst = appendU16(dst, uint16(len(c.corpus)))
	for _, e := range c.corpus {
		dst = appendProg(dst, e.prog)
	}
	tmp := filepath.Join(dir, corpusStateFile+".tmp")
	if err := os.WriteFile(tmp, dst, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, corpusStateFile))
}

// LoadState restores a previously saved campaign state from dir into a
// fresh campaign. It reports whether a state file was found; a missing
// file is not an error (first nightly run starts cold). The campaign's
// round/exec budget applies to the new run only: a resumed campaign
// runs its full configured budget on top of the restored counters.
func (c *Campaign) LoadState(dir string) (bool, error) {
	path := filepath.Join(dir, corpusStateFile)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if fi.Size() > maxStateFile {
		return false, fmt.Errorf("fuzzcamp: state file %s is %d bytes (cap %d)", path, fi.Size(), maxStateFile)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	r := &wireReader{buf: buf}
	if m := r.u32(); r.err == nil && m != corpusMagic {
		return false, fmt.Errorf("fuzzcamp: %s: bad magic %#x", path, m)
	}
	if v := r.u32(); r.err == nil && v != corpusVersion {
		return false, fmt.Errorf("fuzzcamp: %s: unsupported state version %d", path, v)
	}
	r.u64() // seed the state was produced under; informational only
	round := int(r.u32())
	execs := int64(r.u64())
	accepted := int64(r.u64())
	var cov Bitmap
	if raw := r.take(BitmapWireLen); raw != nil {
		bm, _, err := DecodeBitmap(raw)
		if err != nil {
			return false, err
		}
		cov = *bm
	}
	nHist := int(r.u32())
	if r.err == nil && nHist > round {
		return false, fmt.Errorf("fuzzcamp: %s: %d history entries for %d rounds", path, nHist, round)
	}
	hist := make([]int, 0, nHist)
	for i := 0; i < nHist && r.err == nil; i++ {
		hist = append(hist, int(r.u32()))
	}
	nCorpus := int(r.u16())
	if r.err == nil && nCorpus > maxCorpus {
		return false, fmt.Errorf("fuzzcamp: %s: corpus of %d exceeds cap %d", path, nCorpus, maxCorpus)
	}
	corpus := make([]*corpusEntry, 0, nCorpus)
	for i := 0; i < nCorpus && r.err == nil; i++ {
		p := r.prog()
		if r.err != nil {
			break
		}
		if err := p.Validate(); err != nil {
			return false, fmt.Errorf("fuzzcamp: %s: corpus entry %d: %w", path, i, err)
		}
		corpus = append(corpus, &corpusEntry{prog: p})
	}
	if r.err != nil {
		return false, fmt.Errorf("fuzzcamp: %s: %w", path, r.err)
	}
	if r.off != len(buf) {
		return false, fmt.Errorf("fuzzcamp: %s: %d trailing bytes", path, len(buf)-r.off)
	}
	c.round, c.base = round, round
	c.execs, c.accepted = execs, accepted
	c.cov = cov
	c.covHist = hist
	c.corpus = corpus
	return true, nil
}

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("fuzzcamp: truncated state at byte %d (+%d)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// appendProg serializes a program: type, name, map geometry and the
// kernel wire encoding of the instructions.
func appendProg(dst []byte, p *ebpf.Program) []byte {
	dst = append(dst, byte(p.Type))
	dst = appendU16(dst, uint16(len(p.Name)))
	dst = append(dst, p.Name...)
	dst = append(dst, byte(len(p.Maps)))
	for _, m := range p.Maps {
		dst = appendU16(dst, uint16(len(m.Name)))
		dst = append(dst, m.Name...)
		dst = append(dst, byte(m.Type))
		dst = appendU32(dst, m.KeySize)
		dst = appendU32(dst, m.ValueSize)
		dst = appendU32(dst, m.MaxEntries)
	}
	raw := ebpf.EncodeProgram(p.Insns)
	dst = appendU32(dst, uint32(len(raw)))
	return append(dst, raw...)
}

func (r *wireReader) prog() *ebpf.Program {
	p := &ebpf.Program{Type: ebpf.ProgType(r.u8())}
	p.Name = string(r.take(int(r.u16())))
	nMaps := int(r.u8())
	for i := 0; i < nMaps && r.err == nil; i++ {
		m := &ebpf.MapSpec{}
		m.Name = string(r.take(int(r.u16())))
		m.Type = ebpf.MapType(r.u8())
		m.KeySize = r.u32()
		m.ValueSize = r.u32()
		m.MaxEntries = r.u32()
		p.Maps = append(p.Maps, m)
	}
	raw := r.take(int(r.u32()))
	if r.err != nil {
		return nil
	}
	insns, err := ebpf.DecodeProgram(raw)
	if err != nil {
		r.err = err
		return nil
	}
	p.Insns = insns
	return p
}
