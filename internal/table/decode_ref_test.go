package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// DecodeReference is the streaming, field-at-a-time decoder DecodeBytes
// replaced, kept as the reference the differential tests and
// FuzzTableDecode compare it against: same format, same sanity caps,
// same Validate and slice-index rules, chunked growth instead of
// up-front bounds checks. Its one addition is the rule DecodeBytes
// brought with it: input left over after the last core is an error.
func DecodeReference(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("table: reading magic: %w", err)
	}
	if string(magic) != formatMagic {
		return nil, fmt.Errorf("table: bad magic %q", magic)
	}
	le := binary.LittleEndian
	var scratch [8]byte
	get16 := func() (uint16, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return 0, err
		}
		return le.Uint16(scratch[:2]), nil
	}
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return le.Uint32(scratch[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return le.Uint64(scratch[:8]), nil
	}

	ver, err := get16()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("table: unsupported format version %d", ver)
	}
	t := &Table{}
	gen, err := get64()
	if err != nil {
		return nil, err
	}
	t.Generation = gen
	l, err := get64()
	if err != nil {
		return nil, err
	}
	t.Len = int64(l)
	nc, err := get32()
	if err != nil {
		return nil, err
	}
	nv, err := get32()
	if err != nil {
		return nil, err
	}
	// Caps and chunked allocation below keep a hostile header (huge
	// declared counts followed by a truncated body) from forcing large
	// up-front allocations: slices grow as elements are actually read.
	const sanity = 1 << 20
	if nc > sanity || nv > sanity {
		return nil, fmt.Errorf("table: implausible core/vcpu counts %d/%d", nc, nv)
	}
	const chunk = 4096
	t.VCPUs = make([]VCPUInfo, 0, minU32(nv, chunk))
	for i := uint32(0); i < nv; i++ {
		nl, err := get16()
		if err != nil {
			return nil, err
		}
		name := make([]byte, nl)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		fl, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		hc, err := get32()
		if err != nil {
			return nil, err
		}
		util, err := get64()
		if err != nil {
			return nil, err
		}
		lat, err := get64()
		if err != nil {
			return nil, err
		}
		t.VCPUs = append(t.VCPUs, VCPUInfo{
			Name:           string(name),
			Capped:         fl&flagCapped != 0,
			Split:          fl&flagSplit != 0,
			HomeCore:       int(int32(hc)),
			UtilizationPPM: int64(util),
			LatencyGoal:    int64(lat),
		})
	}
	t.Cores = make([]CoreTable, 0, minU32(nc, chunk))
	for i := uint32(0); i < nc; i++ {
		core, err := get32()
		if err != nil {
			return nil, err
		}
		sl, err := get64()
		if err != nil {
			return nil, err
		}
		na, err := get32()
		if err != nil {
			return nil, err
		}
		if na > sanity {
			return nil, fmt.Errorf("table: implausible alloc count %d", na)
		}
		var ct CoreTable
		ct.Core = int(int32(core))
		ct.SliceLen = int64(sl)
		ct.Allocs = make([]Alloc, 0, minU32(na, chunk))
		for j := uint32(0); j < na; j++ {
			s, err := get64()
			if err != nil {
				return nil, err
			}
			e, err := get64()
			if err != nil {
				return nil, err
			}
			v, err := get32()
			if err != nil {
				return nil, err
			}
			ct.Allocs = append(ct.Allocs, Alloc{Start: int64(s), End: int64(e), VCPU: int(int32(v))})
		}
		ns, err := get32()
		if err != nil {
			return nil, err
		}
		if ns > 64<<20 {
			return nil, fmt.Errorf("table: implausible slice count %d", ns)
		}
		ct.slices = make([]int32, 0, minU32(ns, chunk))
		for j := uint32(0); j < ns; j++ {
			s, err := get32()
			if err != nil {
				return nil, err
			}
			ct.slices = append(ct.slices, int32(s))
		}
		t.Cores = append(t.Cores, ct)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("table: trailing bytes")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("table: decoded table invalid: %w", err)
	}
	// Slice data from the wire is untrusted: a corrupt index would turn
	// Lookup's O(1) arithmetic into out-of-bounds accesses. Verify it in
	// full (this also rejects a partial index, where only some non-empty
	// cores carry slices); rebuild from scratch when none was serialized.
	hasSlices := false
	for _, ct := range t.Cores {
		if ct.SliceLen != 0 || len(ct.slices) != 0 {
			hasSlices = true
			break
		}
	}
	if hasSlices {
		if err := t.CheckSlices(); err != nil {
			return nil, fmt.Errorf("table: decoded slice index invalid: %w", err)
		}
	} else if err := t.BuildSlices(0); err != nil {
		return nil, err
	}
	return t, nil
}

func minU32(v uint32, cap uint32) int {
	if v < cap {
		return int(v)
	}
	return int(cap)
}
