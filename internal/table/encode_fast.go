package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// headerEncodedSize is the fixed prefix: magic, version, generation,
// table length, core count, vcpu count.
func headerEncodedSize() int { return len(formatMagic) + 2 + 8 + 8 + 4 + 4 }

// vcpusEncodedSize is the VCPU metadata section.
func (t *Table) vcpusEncodedSize() int {
	n := 0
	for _, v := range t.VCPUs {
		n += 2 + len(v.Name) + 1 + 4 + 8 + 8
	}
	return n
}

// coreEncodedSize is one core's segment: id, slice length, allocation
// list, slice index.
func coreEncodedSize(ct *CoreTable) int {
	return 4 + 8 + 4 + 20*len(ct.Allocs) + 4 + 4*len(ct.slices)
}

// coreEncodedSizeCompact is the segment with the slice index omitted
// (slice length 0, index count 0 — Decode rebuilds the index).
func coreEncodedSizeCompact(ct *CoreTable) int {
	return 4 + 8 + 4 + 20*len(ct.Allocs) + 4
}

// EncodedSizeCompact returns the exact number of bytes
// AppendEncodedCompact will produce.
func (t *Table) EncodedSizeCompact() int {
	n := headerEncodedSize() + t.vcpusEncodedSize()
	for i := range t.Cores {
		n += coreEncodedSizeCompact(&t.Cores[i])
	}
	return n
}

func (t *Table) encodeHeader(buf []byte) int {
	le := binary.LittleEndian
	o := copy(buf, formatMagic)
	le.PutUint16(buf[o:], formatVersion)
	o += 2
	le.PutUint64(buf[o:], t.Generation)
	o += 8
	le.PutUint64(buf[o:], uint64(t.Len))
	o += 8
	le.PutUint32(buf[o:], uint32(len(t.Cores)))
	o += 4
	le.PutUint32(buf[o:], uint32(len(t.VCPUs)))
	o += 4
	return o
}

func (t *Table) encodeVCPUs(buf []byte) (int, error) {
	le := binary.LittleEndian
	o := 0
	for _, v := range t.VCPUs {
		if len(v.Name) > 0xffff {
			return o, fmt.Errorf("table: vcpu name too long (%d bytes)", len(v.Name))
		}
		le.PutUint16(buf[o:], uint16(len(v.Name)))
		o += 2
		o += copy(buf[o:], v.Name)
		var fl byte
		if v.Capped {
			fl |= flagCapped
		}
		if v.Split {
			fl |= flagSplit
		}
		buf[o] = fl
		o++
		le.PutUint32(buf[o:], uint32(v.HomeCore))
		o += 4
		le.PutUint64(buf[o:], uint64(v.UtilizationPPM))
		o += 8
		le.PutUint64(buf[o:], uint64(v.LatencyGoal))
		o += 8
	}
	return o, nil
}

func encodeCore(buf []byte, ct *CoreTable, compact bool) int {
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(ct.Core))
	o := 4
	if compact {
		// Slice length 0 + index count 0: the index is derived data and
		// Decode rebuilds it, so compact encodings omit it entirely.
		le.PutUint64(buf[o:], 0)
	} else {
		le.PutUint64(buf[o:], uint64(ct.SliceLen))
	}
	o += 8
	le.PutUint32(buf[o:], uint32(len(ct.Allocs)))
	o += 4
	for _, a := range ct.Allocs {
		le.PutUint64(buf[o:], uint64(a.Start))
		le.PutUint64(buf[o+8:], uint64(a.End))
		le.PutUint32(buf[o+16:], uint32(int32(a.VCPU)))
		o += 20
	}
	if compact {
		le.PutUint32(buf[o:], 0)
		return o + 4
	}
	le.PutUint32(buf[o:], uint32(len(ct.slices)))
	o += 4
	for _, s := range ct.slices {
		le.PutUint32(buf[o:], uint32(s))
		o += 4
	}
	return o
}

// grow ensures room for need more bytes past len(dst) and returns dst
// along with the write window.
func grow(dst []byte, need int) ([]byte, []byte) {
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return dst, dst[len(dst) : len(dst)+need]
}

// AppendEncoded appends the table's binary wire encoding, slice index
// included, to dst and returns the extended slice: one buffer filled by
// direct offset arithmetic, as DecodeBytes reads it.
func (t *Table) AppendEncoded(dst []byte) ([]byte, error) {
	return t.appendEncodedReusing(dst, nil, nil, false)
}

// AppendEncodedCompact appends the table's wire encoding with the
// per-core slice index omitted (slice length and index count encoded as
// zero). The index is a pure function of the allocation lists, so
// Decode rebuilds it losslessly; leaving it off the wire shrinks dense
// tables by roughly an order of magnitude — the index typically dwarfs
// the allocation lists it summarizes.
func (t *Table) AppendEncodedCompact(dst []byte) ([]byte, error) {
	return t.appendEncodedReusing(dst, nil, nil, true)
}

// AppendEncodedReusingCompact is AppendEncodedCompact with cross-epoch
// segment reuse: any core whose id and full allocation list are
// unchanged from prev has its encoded segment copied verbatim out of
// prevBytes instead of being re-encoded field by field (in compact form
// a core's segment depends on nothing else). prevBytes must be prev's
// compact encoding — its length is verified against
// prev.EncodedSizeCompact() — and on any mismatch, or a nil prev, the
// call degrades to a full encode.
func (t *Table) AppendEncodedReusingCompact(dst []byte, prev *Table, prevBytes []byte) ([]byte, error) {
	if prev == nil || prev.Len != t.Len || len(prev.Cores) != len(t.Cores) ||
		len(prevBytes) != prev.EncodedSizeCompact() {
		prev, prevBytes = nil, nil
	}
	return t.appendEncodedReusing(dst, prev, prevBytes, true)
}

// appendEncodedReusing is the one encoder behind the Append* variants.
// A non-nil prev is only ever passed with compact set.
func (t *Table) appendEncodedReusing(dst []byte, prev *Table, prevBytes []byte, compact bool) ([]byte, error) {
	need := t.EncodedSize()
	if compact {
		need = t.EncodedSizeCompact()
	}
	dst, buf := grow(dst, need)
	o := t.encodeHeader(buf)
	n, err := t.encodeVCPUs(buf[o:])
	if err != nil {
		return dst, err
	}
	o += n
	prevOff := 0
	if prev != nil {
		prevOff = headerEncodedSize() + prev.vcpusEncodedSize()
	}
	for ci := range t.Cores {
		ct := &t.Cores[ci]
		if prev != nil {
			pc := &prev.Cores[ci]
			seg := coreEncodedSizeCompact(pc)
			if ct.Core == pc.Core && slices.Equal(ct.Allocs, pc.Allocs) {
				o += copy(buf[o:], prevBytes[prevOff:prevOff+seg])
				prevOff += seg
				continue
			}
			prevOff += seg
		}
		o += encodeCore(buf[o:], ct, compact)
	}
	if o != need {
		return dst, fmt.Errorf("table: encoded %d bytes, expected %d", o, need)
	}
	return dst[:len(dst)+need], nil
}

// Encode writes the table, including slice tables, in the binary wire
// format. BuildSlices should have been called if the consumer expects
// O(1) lookup structures (a table with no slice data is still valid and
// the decoder rebuilds slices on demand).
func (t *Table) Encode(w io.Writer) error {
	buf, err := t.AppendEncoded(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
