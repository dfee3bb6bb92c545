package elf

import (
	"encoding/binary"
	"fmt"

	"bcf/internal/ebpf"
)

// EmitProgram emits a single program (with its maps) as an ELF
// relocatable object — the single-program convenience over EmitObject.
func EmitProgram(prog *ebpf.Program) ([]byte, error) {
	return EmitObject(&Object{Programs: []*ebpf.Program{prog}, Maps: prog.Maps})
}

// EmitObject serializes programs and maps into the ELF relocatable form
// ParseObject accepts. The emission is deterministic (a pure function of
// the input) and inverse to parsing: map-reference lddw instructions are
// written as plain lddw (Src=0, Imm=0) plus an R_BPF_64_64 relocation
// against the map's OBJECT symbol, so a parse of the output yields the
// exact canonical instruction stream that went in — which is what makes
// round-trip verdicts, including error instruction indices, identical.
func EmitObject(obj *Object) ([]byte, error) {
	if len(obj.Programs) == 0 {
		return nil, fmt.Errorf("elf: emit: no programs")
	}
	if len(obj.Maps) > MaxMaps {
		return nil, fmt.Errorf("elf: emit: %d maps exceeds cap %d", len(obj.Maps), MaxMaps)
	}
	for pi, p := range obj.Programs {
		if len(p.Maps) != len(obj.Maps) {
			return nil, fmt.Errorf("elf: emit: program %d references %d maps, object has %d", pi, len(p.Maps), len(obj.Maps))
		}
		for mi := range p.Maps {
			if p.Maps[mi] != obj.Maps[mi] && *p.Maps[mi] != *obj.Maps[mi] {
				return nil, fmt.Errorf("elf: emit: program %d map %d differs from the object's", pi, mi)
			}
		}
	}

	// String table: one table serves section names, symbol names and
	// e_shstrndx. Offsets are handed out append-only, so the layout is a
	// pure function of the input.
	strtab := []byte{0}
	addStr := func(s string) uint32 {
		if len(s) > maxNameLen {
			s = s[:maxNameLen]
		}
		off := uint32(len(strtab))
		strtab = append(strtab, s...)
		strtab = append(strtab, 0)
		return off
	}

	// Section plan: 0 NULL, 1 .strtab, 2 .symtab, [maps], [.btf.bcf],
	// program sections, relocation sections.
	type shdr struct {
		nameOff uint32
		typ     uint32
		flags   uint64
		off     uint64
		size    uint64
		link    uint32
		info    uint32
		align   uint64
		entsize uint64
		body    []byte
	}
	hdrs := []shdr{{}} // SHT_NULL
	strtabIdx := len(hdrs)
	hdrs = append(hdrs, shdr{nameOff: addStr(".strtab"), typ: shtStrtab, align: 1})
	symtabIdx := len(hdrs)
	hdrs = append(hdrs, shdr{nameOff: addStr(".symtab"), typ: shtSymtab,
		link: uint32(strtabIdx), info: 1, align: 8, entsize: symSize})

	mapsIdx := -1
	if len(obj.Maps) > 0 {
		// BTF-lite ids: key = 2i+1, value = 2i+2, skipping zero-size
		// fields (ringbuf), which keeps the table strictly increasing.
		var btfRecs []btfLiteRec
		btfID := func(i int, key bool, size uint32) uint32 {
			if size == 0 {
				return 0
			}
			id := uint32(2*i + 1)
			if !key {
				id = uint32(2*i + 2)
			}
			btfRecs = append(btfRecs, btfLiteRec{id: id, size: size})
			return id
		}
		mapsBody := make([]byte, 0, len(obj.Maps)*mapDefSize)
		for i, m := range obj.Maps {
			for _, f := range [7]uint32{
				uint32(m.Type), m.KeySize, m.ValueSize, m.MaxEntries, 0,
				btfID(i, true, m.KeySize), btfID(i, false, m.ValueSize),
			} {
				mapsBody = binary.LittleEndian.AppendUint32(mapsBody, f)
			}
		}
		mapsIdx = len(hdrs)
		hdrs = append(hdrs, shdr{nameOff: addStr("maps"), typ: shtProgbits,
			flags: shfAlloc, align: 4, entsize: mapDefSize, body: mapsBody})
		hdrs = append(hdrs, shdr{nameOff: addStr(".btf.bcf"), typ: shtProgbits,
			align: 4, body: appendBTFLite(nil, btfRecs)})
	}

	// Symbols: null, one OBJECT per map, one FUNC per program. Symbol
	// bodies are filled after program sections exist (FUNC size = body
	// length), but indices are fixed now for relocations.
	mapSymIdx := func(mi int) uint64 { return uint64(1 + mi) }
	progSymIdx := func(pi int) int { return 1 + len(obj.Maps) + pi }
	symCount := 1 + len(obj.Maps) + len(obj.Programs)
	symBody := make([]byte, symCount*symSize)
	putSym := func(idx int, nameOff uint32, info uint8, shndx uint16, value, size uint64) {
		rec := symBody[idx*symSize:]
		binary.LittleEndian.PutUint32(rec[0:], nameOff)
		rec[4] = info
		rec[5] = 0
		binary.LittleEndian.PutUint16(rec[6:], shndx)
		binary.LittleEndian.PutUint64(rec[8:], value)
		binary.LittleEndian.PutUint64(rec[16:], size)
	}
	for i, m := range obj.Maps {
		putSym(1+i, addStr(sanitizeName(m.Name)), stbGlobal<<4|sttObject,
			uint16(mapsIdx), uint64(i)*mapDefSize, mapDefSize)
	}

	// Program sections plus their relocations.
	for pi, p := range obj.Programs {
		secName := progSectionName(p.Type, p.Name)
		insns := ebpf.Canonicalize(p.Insns)
		var rels []byte
		for i := range insns {
			if !insns[i].IsLoadFromMap() {
				continue
			}
			ins := &insns[i]
			if ins.Src != ebpf.PseudoMapFD {
				return nil, fmt.Errorf("elf: emit: program %d insn %d: unsupported pseudo src %d", pi, i, ins.Src)
			}
			mi := ins.Imm
			if mi < 0 || mi >= int64(len(obj.Maps)) || ins.Off != 0 {
				return nil, fmt.Errorf("elf: emit: program %d insn %d: map reference out of range", pi, i)
			}
			rels = binary.LittleEndian.AppendUint64(rels, uint64(i)*8)
			rels = binary.LittleEndian.AppendUint64(rels, mapSymIdx(int(mi))<<32|rBPF64_64)
			ins.Src = 0
			ins.Imm = 0
		}
		body := ebpf.EncodeProgram(insns)
		progSecIdx := len(hdrs)
		hdrs = append(hdrs, shdr{nameOff: addStr(secName), typ: shtProgbits,
			flags: shfAlloc | shfExecinstr, align: 8, body: body})
		putSym(progSymIdx(pi), addStr(sanitizeName(p.Name)), stbGlobal<<4|sttFunc,
			uint16(progSecIdx), 0, uint64(len(body)))
		if len(rels) > 0 {
			hdrs = append(hdrs, shdr{nameOff: addStr(".rel" + secName), typ: shtRel,
				link: uint32(symtabIdx), info: uint32(progSecIdx), align: 8,
				entsize: relSize, body: rels})
		}
	}
	if len(hdrs) > MaxSections {
		return nil, fmt.Errorf("elf: emit: %d sections exceeds cap %d", len(hdrs), MaxSections)
	}
	hdrs[symtabIdx].body = symBody
	hdrs[strtabIdx].body = strtab // last: addStr calls are done

	// Layout: ELF header, section bodies in section order (8-aligned),
	// section header table.
	off := uint64(ehdrSize)
	for i := range hdrs {
		if hdrs[i].typ == shtNull {
			continue
		}
		off = (off + 7) &^ 7
		hdrs[i].off = off
		hdrs[i].size = uint64(len(hdrs[i].body))
		off += hdrs[i].size
	}
	shoff := (off + 7) &^ 7
	total := shoff + uint64(len(hdrs))*shdrSize
	if total > MaxObjectSize {
		return nil, fmt.Errorf("elf: emit: object size %d exceeds cap %d", total, MaxObjectSize)
	}

	out := make([]byte, total)
	out[0], out[1], out[2], out[3] = 0x7f, 'E', 'L', 'F'
	out[4], out[5], out[6] = elfClass64, elfData2LSB, elfVersion
	binary.LittleEndian.PutUint16(out[16:], etRel)
	binary.LittleEndian.PutUint16(out[18:], emBPF)
	binary.LittleEndian.PutUint32(out[20:], elfVersion)
	binary.LittleEndian.PutUint64(out[40:], shoff)
	binary.LittleEndian.PutUint16(out[52:], ehdrSize)
	binary.LittleEndian.PutUint16(out[58:], shdrSize)
	binary.LittleEndian.PutUint16(out[60:], uint16(len(hdrs)))
	binary.LittleEndian.PutUint16(out[62:], uint16(strtabIdx))
	for i := range hdrs {
		h := &hdrs[i]
		copy(out[h.off:], h.body)
		rec := out[shoff+uint64(i)*shdrSize:]
		binary.LittleEndian.PutUint32(rec[0:], h.nameOff)
		binary.LittleEndian.PutUint32(rec[4:], h.typ)
		binary.LittleEndian.PutUint64(rec[8:], h.flags)
		binary.LittleEndian.PutUint64(rec[24:], h.off)
		binary.LittleEndian.PutUint64(rec[32:], h.size)
		binary.LittleEndian.PutUint32(rec[40:], h.link)
		binary.LittleEndian.PutUint32(rec[44:], h.info)
		binary.LittleEndian.PutUint64(rec[48:], h.align)
		binary.LittleEndian.PutUint64(rec[56:], h.entsize)
	}
	return out, nil
}
