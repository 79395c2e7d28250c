package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The binary table format is the analogue of the paper's "compiled,
// binary format" that the userspace planner pushes to the hypervisor via
// a hypercall. It is versioned, little-endian, and self-contained: the
// dispatcher needs nothing else to start enacting the schedule.
const (
	formatMagic   = "TBLU"
	deltaMagic    = "TBLD" // AppendEncodedDelta's header
	formatVersion = uint16(1)
)

const (
	flagCapped = 1 << iota
	flagSplit
)

// MaxNameLen is the longest vCPU name, in bytes, the format carries.
const MaxNameLen = 0xffff

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

// coreEncodedSizeCompact is one core's segment: id, slice length,
// allocation list, index count. The slice index is derived data and is
// never written: slice length and index count are both zero.
func coreEncodedSizeCompact(ct *CoreTable) int {
	return 4 + 8 + 4 + 20*len(ct.Allocs) + 4
}

// EncodedSize returns the size of the table together with its slice
// index: the wire image plus four bytes per slice entry, the footprint of
// a table as a dispatcher holds it. This is what the Fig. 4
// memory-overhead experiment measures. The wire image itself carries no
// index and is EncodedSizeCompact bytes long.
func (t *Table) EncodedSize() int {
	return t.EncodedSizeCompact() + 4*t.SliceCount()
}

// EncodedSizeCompact returns the exact number of bytes the encoders
// produce.
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
	o := 0
	for i := range t.VCPUs {
		n, err := encodeVCPU(buf[o:], &t.VCPUs[i])
		if err != nil {
			return o, err
		}
		o += n
	}
	return o, nil
}

// encodeVCPU writes one vCPU record, vcpuFixedSize+len(v.Name) bytes.
func encodeVCPU(buf []byte, v *VCPUInfo) (int, error) {
	le := binary.LittleEndian
	if len(v.Name) > MaxNameLen {
		return 0, fmt.Errorf("table: vcpu name too long (%d bytes)", len(v.Name))
	}
	le.PutUint16(buf, uint16(len(v.Name)))
	o := 2
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
	return o + 8, nil
}

func encodeCore(buf []byte, ct *CoreTable) int {
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(ct.Core))
	o := 4
	le.PutUint64(buf[o:], 0) // slice length: no index on the wire
	o += 8
	le.PutUint32(buf[o:], uint32(len(ct.Allocs)))
	o += 4
	for _, a := range ct.Allocs {
		le.PutUint64(buf[o:], uint64(a.Start))
		le.PutUint64(buf[o+8:], uint64(a.End))
		le.PutUint32(buf[o+16:], uint32(int32(a.VCPU)))
		o += 20
	}
	le.PutUint32(buf[o:], 0) // index count
	return o + 4
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

// AppendEncodedCompact appends the table's binary wire encoding to dst
// and returns the extended slice: one buffer filled by direct offset
// arithmetic, as DecodeBytes reads it. The encoding carries no slice
// index (slice length and index count encoded as zero). The index is a
// pure function of the allocation lists, so an installer builds it from
// them; leaving it off the wire shrinks dense tables by roughly an order
// of magnitude — the index typically dwarfs the allocation lists it
// summarizes.
func (t *Table) AppendEncodedCompact(dst []byte) ([]byte, error) {
	return t.appendEncodedReusing(dst, nil, nil)
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
	return t.appendEncodedReusing(dst, prev, prevBytes)
}

// appendEncodedReusing is the one encoder behind the Append* variants.
func (t *Table) appendEncodedReusing(dst []byte, prev *Table, prevBytes []byte) ([]byte, error) {
	need := t.EncodedSizeCompact()
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
			if sameCore(ct, pc) {
				o += copy(buf[o:], prevBytes[prevOff:prevOff+seg])
				prevOff += seg
				continue
			}
			prevOff += seg
		}
		o += encodeCore(buf[o:], ct)
	}
	if o != need {
		return dst, fmt.Errorf("table: encoded %d bytes, expected %d", o, need)
	}
	return dst[:len(dst)+need], nil
}

// AppendEncodedDelta appends t's delta encoding against base, which
// DecodeChain decodes on top of base's encoding. It is the full
// encoding's header under its own magic, then two lists, each a u32
// count of (u32 index, record) pairs in index order: the vCPU records
// that differ from base's at the same index, then the compact segments
// of the cores that do. An index base lacks is always listed.
func (t *Table) AppendEncodedDelta(dst []byte, base *Table) ([]byte, error) {
	vchanged := func(i int) bool { return i >= len(base.VCPUs) || t.VCPUs[i] != base.VCPUs[i] }
	cchanged := func(i int) bool { return i >= len(base.Cores) || !sameCore(&t.Cores[i], &base.Cores[i]) }
	need, nv, nc := headerEncodedSize()+8, 0, 0
	for i := range t.VCPUs {
		if vchanged(i) {
			need, nv = need+4+vcpuFixedSize+len(t.VCPUs[i].Name), nv+1
		}
	}
	for i := range t.Cores {
		if cchanged(i) {
			need, nc = need+4+coreEncodedSizeCompact(&t.Cores[i]), nc+1
		}
	}
	le := binary.LittleEndian
	// Grown as append grows it: a caller reuses one buffer for deltas of
	// varying size.
	dst = slices.Grow(dst, need)
	buf := dst[len(dst) : len(dst)+need]
	o := t.encodeHeader(buf)
	copy(buf, deltaMagic)
	le.PutUint32(buf[o:], uint32(nv))
	o += 4
	for i := range t.VCPUs {
		if vchanged(i) {
			le.PutUint32(buf[o:], uint32(i))
			n, err := encodeVCPU(buf[o+4:], &t.VCPUs[i])
			if err != nil {
				return dst, err
			}
			o += 4 + n
		}
	}
	le.PutUint32(buf[o:], uint32(nc))
	o += 4
	for i := range t.Cores {
		if cchanged(i) {
			le.PutUint32(buf[o:], uint32(i))
			o += 4 + encodeCore(buf[o+4:], &t.Cores[i])
		}
	}
	return dst[:len(dst)+need], nil
}

// sameCore reports whether a and b schedule alike: the same core id and
// the same allocation list.
func sameCore(a, b *CoreTable) bool {
	return a.Core == b.Core && (sameBacking(a.Allocs, b.Allocs) || slices.Equal(a.Allocs, b.Allocs))
}

// sameBacking reports whether a and b are one list: the same length over
// the same first element. A core the planner adopted from the previous
// plan shares its allocation list with the previous epoch, and tables are
// immutable, so such a core needs no element-by-element comparison.
func sameBacking(a, b []Alloc) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Encode writes the table in the binary wire format
// (AppendEncodedCompact).
func (t *Table) Encode(w io.Writer) error {
	buf, err := t.AppendEncodedCompact(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
