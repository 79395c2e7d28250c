package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Fixed parts of the wire records, as the size functions in
// encode_fast.go count them.
const (
	vcpuFixedSize  = 2 + 1 + 4 + 8 + 8 // name length, flags, home core, utilization, latency goal
	coreFixedSize  = 4 + 8 + 4 + 4     // id, slice length, allocation count, slice count
	allocWireSize  = 8 + 8 + 4
	maxWireCount   = 1 << 20  // cores, vCPUs, allocations per core
	maxWireIndices = 64 << 20 // slice entries per core
)

// Decode reads a table in the binary wire format to the end of r.
func Decode(r io.Reader) (*Table, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading encoding: %w", err)
	}
	return DecodeBytes(b)
}

// DecodeBytes decodes a table from its binary wire encoding — the twin
// of the Append* encoders, offset arithmetic over one image. The image
// is untrusted: every declared count is checked against the bytes that
// remain before anything is sized by it, the whole image must be
// consumed, and the result passes Validate and CheckSliceBound. The
// encoders write no slice index; an older image that carries one is
// accepted, its index words checked for framing only and dropped — an
// installer builds its own index (NewIndex) and never trusts the wire's.
// The table owns its memory; b is not retained.
func DecodeBytes(b []byte) (*Table, error) {
	return DecodeBytesSharing(b, nil, nil)
}

// DecodeBytesSharing is DecodeBytes with cross-epoch sharing, the
// decode-side twin of AppendEncodedReusingCompact: a core whose wire
// segment is byte-identical to the segment at the same index of
// prevBytes adopts prev's core — its allocation list, shared, not
// copied — instead of being parsed. That is sound because tables are
// immutable once built and
// a compact segment determines the core completely under a given table
// length. prevBytes must be prev's compact encoding (its length is
// verified against prev.EncodedSizeCompact()); on any mismatch — a nil
// prev, another length or core count, a non-compact prevBytes — no core
// is shared. A vCPU whose name bytes equal those of prev's vCPU at the
// same index takes prev's name string whatever prevBytes is (strings are
// immutable). The result is deep-equal to what DecodeBytes returns for b
// either way.
func DecodeBytesSharing(b []byte, prev *Table, prevBytes []byte) (*Table, error) {
	le := binary.LittleEndian
	short := func(what string, at int) error {
		return fmt.Errorf("table: encoding truncated in %s at byte %d of %d", what, at, len(b))
	}
	if len(b) < len(formatMagic) || string(b[:len(formatMagic)]) != formatMagic {
		return nil, fmt.Errorf("table: bad magic %q", b[:min(len(b), len(formatMagic))])
	}
	if len(b) < headerEncodedSize() {
		return nil, short("header", len(b))
	}
	o := len(formatMagic)
	if ver := le.Uint16(b[o:]); ver != formatVersion {
		return nil, fmt.Errorf("table: unsupported format version %d", ver)
	}
	t := &Table{Generation: le.Uint64(b[o+2:]), Len: int64(le.Uint64(b[o+10:]))}
	nc, nv := le.Uint32(b[o+18:]), le.Uint32(b[o+22:])
	o = headerEncodedSize()
	if nc > maxWireCount || nv > maxWireCount {
		return nil, fmt.Errorf("table: implausible core/vcpu counts %d/%d", nc, nv)
	}

	if int(nv)*vcpuFixedSize > len(b)-o {
		return nil, short("vcpu section", o)
	}
	t.VCPUs = make([]VCPUInfo, nv)
	for i := range t.VCPUs {
		if len(b)-o < vcpuFixedSize {
			return nil, short("vcpu record", o)
		}
		nl := int(le.Uint16(b[o:]))
		if len(b)-o < vcpuFixedSize+nl {
			return nil, short("vcpu name", o)
		}
		o += 2
		v := &t.VCPUs[i]
		if name := b[o : o+nl]; prev != nil && i < len(prev.VCPUs) && prev.VCPUs[i].Name == string(name) {
			v.Name = prev.VCPUs[i].Name
		} else {
			v.Name = string(name)
		}
		o += nl
		v.Capped = b[o]&flagCapped != 0
		v.Split = b[o]&flagSplit != 0
		v.HomeCore = int(int32(le.Uint32(b[o+1:])))
		v.UtilizationPPM = int64(le.Uint64(b[o+5:]))
		v.LatencyGoal = int64(le.Uint64(b[o+13:]))
		o += vcpuFixedSize - 2
	}

	if int(nc)*coreFixedSize > len(b)-o {
		return nil, short("core section", o)
	}
	t.Cores = make([]CoreTable, nc)
	if prev == nil || prev.Len != t.Len || len(prev.Cores) != len(t.Cores) ||
		len(prevBytes) != prev.EncodedSizeCompact() {
		prev, prevBytes = nil, nil
	}
	prevOff := 0
	if prev != nil {
		prevOff = headerEncodedSize() + prev.vcpusEncodedSize()
	}
	for ci := range t.Cores {
		ct := &t.Cores[ci]
		if prev != nil {
			pc := &prev.Cores[ci]
			seg := coreEncodedSizeCompact(pc)
			prevSeg := prevBytes[prevOff : prevOff+seg]
			prevOff += seg
			// An empty core has nothing worth sharing: it is parsed.
			if len(pc.Allocs) > 0 && len(b)-o >= seg && bytes.Equal(b[o:o+seg], prevSeg) {
				*ct = *pc
				o += seg
				continue
			}
		}
		if len(b)-o < coreFixedSize {
			return nil, short("core record", o)
		}
		ct.Core = int(int32(le.Uint32(b[o:])))
		// b[o+4:o+12] is an older image's slice length: dropped.
		na := le.Uint32(b[o+12:])
		o += 16
		if na > maxWireCount {
			return nil, fmt.Errorf("table: implausible alloc count %d", na)
		}
		if int(na)*allocWireSize+4 > len(b)-o {
			return nil, short("allocation list", o)
		}
		ct.Allocs = make([]Alloc, na)
		for j := range ct.Allocs {
			ct.Allocs[j] = Alloc{
				Start: int64(le.Uint64(b[o:])),
				End:   int64(le.Uint64(b[o+8:])),
				VCPU:  int(int32(le.Uint32(b[o+16:]))),
			}
			o += allocWireSize
		}
		// An older image's slice index: its count must be plausible and
		// its words present, and then they are skipped unread.
		ns := le.Uint32(b[o:])
		o += 4
		if ns > maxWireIndices {
			return nil, fmt.Errorf("table: implausible slice count %d", ns)
		}
		if int(ns)*4 > len(b)-o {
			return nil, short("slice index", o)
		}
		o += int(ns) * 4
	}
	if o != len(b) {
		return nil, fmt.Errorf("table: %d trailing bytes", len(b)-o)
	}

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("table: decoded table invalid: %w", err)
	}
	// The table an installer will index must stay within the slice bound.
	if err := t.CheckSliceBound(0); err != nil {
		return nil, err
	}
	return t, nil
}
