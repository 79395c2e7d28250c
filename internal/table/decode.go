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
	ts, err := DecodeChain([][]byte{b}, 1)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// DecodeChain decodes a chain of encodings — the first a full one, each
// later one full or a delta (AppendEncodedDelta) against the table
// before it — and returns its last keep tables (all of them when keep is
// at least the chain's length), each checked as DecodeBytes checks one.
// The tables before those are never built: their encodings are only
// framed, and each vCPU record and core segment is parsed once, from the
// last encoding that changed it. A returned table shares with the one
// before it every vCPU and, under the same length and core count, every
// core whose encoding did not change — one a delta leaves out, or a full
// encoding repeats byte for byte. Tables are immutable, so that is safe.
// The encodings are not retained.
func DecodeChain(encs [][]byte, keep int) ([]*Table, error) {
	// at locates the encoding of one vCPU or core: the step that last
	// changed it and its bytes.
	type at struct {
		step int
		rec  []byte
	}
	var vs, cs []at
	out := make([]*Table, 0, max(min(keep, len(encs)), 0))
	var prev *Table
	var chk *Checker
	var known []bool
	for k, b := range encs {
		magic := formatMagic
		if k > 0 && bytes.HasPrefix(b, []byte(deltaMagic)) {
			magic = deltaMagic
		}
		gen, tlen, nc, nv, o, err := decodeHeader(b, magic)
		if err != nil {
			return nil, err
		}
		// Only what the step must list is sized by its counts.
		haveV, haveC := len(vs), len(cs)
		if magic == formatMagic {
			haveV, haveC = 0, 0
		}
		if max(nv-haveV, 0)*vcpuFixedSize+max(nc-haveC, 0)*coreFixedSize > len(b)-o {
			return nil, truncated(b, "vcpu and core sections", o)
		}
		vs, cs = resized(vs, nv), resized(cs, nc)
		// A record byte for byte the one it replaces changes nothing.
		set := func(s []at, i, o, end int) {
			if !bytes.Equal(s[i].rec, b[o:end]) {
				s[i] = at{k, b[o:end]}
			}
		}
		vcpu := func(i, o int) (int, error) {
			end, err := decodeVCPU(b, o, nil, nil)
			if err == nil {
				set(vs, i, o, end)
			}
			return end, err
		}
		core := func(i, o int) (int, error) {
			end, err := decodeCore(b, o, nil)
			if err == nil {
				set(cs, i, o, end)
			}
			return end, err
		}
		if magic == formatMagic {
			for i := 0; i < nv && err == nil; i++ {
				o, err = vcpu(i, o)
			}
			for i := 0; i < nc && err == nil; i++ {
				o, err = core(i, o)
			}
		} else if o, err = decodeDeltaList(b, o, "vcpu", nv, haveV, vcpu); err == nil {
			o, err = decodeDeltaList(b, o, "core", nc, haveC, core)
		}
		if err == nil && o != len(b) {
			err = fmt.Errorf("table: %d trailing bytes", len(b)-o)
		}
		if err != nil {
			return nil, err
		}
		if k < len(encs)-keep {
			continue
		}

		t := &Table{Generation: gen, Len: tlen, VCPUs: make([]VCPUInfo, nv), Cores: make([]CoreTable, nc)}
		for i, a := range vs {
			var pv *VCPUInfo
			if prev != nil && i < len(prev.VCPUs) {
				pv = &prev.VCPUs[i]
			}
			if pv != nil && a.step < k {
				t.VCPUs[i] = *pv
			} else if _, err := decodeVCPU(a.rec, 0, &t.VCPUs[i], pv); err != nil {
				return nil, err
			}
		}
		share := prev != nil && prev.Len == t.Len && len(prev.Cores) == len(t.Cores)
		known = sized(known, nc)
		for i, a := range cs {
			if known[i] = share && a.step < k; known[i] {
				t.Cores[i] = prev.Cores[i]
			} else if _, err := decodeCore(a.rec, 0, &t.Cores[i]); err != nil {
				return nil, err
			}
		}
		// A shared core passed prev's checks under this length: its slice
		// bound, and its validity too while this table has no fewer vCPUs.
		valid := known
		if !share || len(t.VCPUs) < len(prev.VCPUs) {
			valid = nil
		}
		if chk == nil {
			chk = t.getChecker()
			defer putChecker(chk)
		}
		if err := checked(t, chk, valid, known); err != nil {
			return nil, err
		}
		out, prev = append(out, t), t
	}
	return out, nil
}

func truncated(b []byte, what string, at int) error {
	return fmt.Errorf("table: encoding truncated in %s at byte %d of %d", what, at, len(b))
}

// decodeHeader reads the fixed prefix both encodings share: the magic
// that names the encoding, the generation, the table length, the core
// and vCPU counts; o is the offset past it.
func decodeHeader(b []byte, magic string) (gen uint64, tlen int64, nc, nv, o int, err error) {
	le := binary.LittleEndian
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return 0, 0, 0, 0, 0, fmt.Errorf("table: bad magic %q", b[:min(len(b), len(magic))])
	}
	if len(b) < headerEncodedSize() {
		return 0, 0, 0, 0, 0, truncated(b, "header", len(b))
	}
	o = len(magic)
	if ver := le.Uint16(b[o:]); ver != formatVersion {
		return 0, 0, 0, 0, 0, fmt.Errorf("table: unsupported format version %d", ver)
	}
	c, v := le.Uint32(b[o+18:]), le.Uint32(b[o+22:])
	if c > maxWireCount || v > maxWireCount {
		return 0, 0, 0, 0, 0, fmt.Errorf("table: implausible core/vcpu counts %d/%d", c, v)
	}
	return le.Uint64(b[o+2:]), int64(le.Uint64(b[o+10:])), int(c), int(v), headerEncodedSize(), nil
}

// decodeVCPU frames the vCPU record at b[o:], parses it into v unless v
// is nil, and returns the offset past it. When prev is non-nil and its
// name equals the record's, v takes prev's string.
func decodeVCPU(b []byte, o int, v, prev *VCPUInfo) (int, error) {
	le := binary.LittleEndian
	if len(b)-o < vcpuFixedSize {
		return 0, truncated(b, "vcpu record", o)
	}
	nl := int(le.Uint16(b[o:]))
	if len(b)-o < vcpuFixedSize+nl {
		return 0, truncated(b, "vcpu name", o)
	}
	if v == nil {
		return o + vcpuFixedSize + nl, nil
	}
	o += 2
	if name := b[o : o+nl]; prev != nil && prev.Name == string(name) {
		v.Name = prev.Name
	} else {
		v.Name = string(name)
	}
	o += nl
	v.Capped = b[o]&flagCapped != 0
	v.Split = b[o]&flagSplit != 0
	v.HomeCore = int(int32(le.Uint32(b[o+1:])))
	v.UtilizationPPM = int64(le.Uint64(b[o+5:]))
	v.LatencyGoal = int64(le.Uint64(b[o+13:]))
	return o + vcpuFixedSize - 2, nil
}

// decodeCore frames the core segment at b[o:], parses it into ct unless
// ct is nil, and returns the offset past it.
func decodeCore(b []byte, o int, ct *CoreTable) (int, error) {
	le := binary.LittleEndian
	if len(b)-o < coreFixedSize {
		return 0, truncated(b, "core record", o)
	}
	id := int(int32(le.Uint32(b[o:])))
	// b[o+4:o+12] is an older image's slice length: dropped.
	na := le.Uint32(b[o+12:])
	o += 16
	if na > maxWireCount {
		return 0, fmt.Errorf("table: implausible alloc count %d", na)
	}
	if int(na)*allocWireSize+4 > len(b)-o {
		return 0, truncated(b, "allocation list", o)
	}
	if ct != nil {
		ct.Core, ct.Allocs = id, make([]Alloc, na)
		for j := range ct.Allocs {
			a := b[o+j*allocWireSize:]
			ct.Allocs[j] = Alloc{Start: int64(le.Uint64(a)), End: int64(le.Uint64(a[8:])), VCPU: int(int32(le.Uint32(a[16:])))}
		}
	}
	o += int(na) * allocWireSize
	// An older image's slice index: its count must be plausible and its
	// words present, and then they are skipped unread.
	ns := le.Uint32(b[o:])
	o += 4
	if ns > maxWireIndices {
		return 0, fmt.Errorf("table: implausible slice count %d", ns)
	}
	if int(ns)*4 > len(b)-o {
		return 0, truncated(b, "slice index", o)
	}
	return o + int(ns)*4, nil
}

// decodeDeltaList frames one list of a delta at b[o:] — a u32 count,
// then (u32 index, record) pairs — handing each record to decode, and
// returns the offset past it. Indices must rise and stay below n, and
// every index from have, the length of the list in the table before,
// up to n must be listed: nothing earlier holds it.
func decodeDeltaList(b []byte, o int, what string, n, have int, decode func(i, o int) (int, error)) (int, error) {
	if len(b)-o < 4 {
		return 0, truncated(b, what+" list", o)
	}
	count := int(binary.LittleEndian.Uint32(b[o:]))
	o += 4
	if count > n {
		return 0, fmt.Errorf("table: delta lists %d of %d %ss", count, n, what)
	}
	next, fresh := 0, 0
	for ; count > 0; count-- {
		if len(b)-o < 4 {
			return 0, truncated(b, what+" list", o)
		}
		i := int(binary.LittleEndian.Uint32(b[o:]))
		if i < next || i >= n {
			return 0, fmt.Errorf("table: delta %s index %d out of order or past %d", what, i, n)
		}
		if i >= have {
			fresh++
		}
		var err error
		if o, err = decode(i, o+4); err != nil {
			return 0, err
		}
		next = i + 1
	}
	if fresh != max(n-have, 0) {
		return 0, fmt.Errorf("table: delta leaves %ss %d..%d unset", what, have, n-1)
	}
	return o, nil
}

// resized is s at length n, new elements zero.
func resized[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}

// checked is the verdict on a decoded table: valid — c validates it in
// its scratch, taking the cores marked in valid as valid already
// (Checker.ValidateDelta) — and, but for the cores marked in bounded,
// within the slice bound an installer will index it under.
func checked(t *Table, c *Checker, valid, bounded []bool) error {
	if err := c.ValidateDelta(t, valid); err != nil {
		return fmt.Errorf("table: decoded table invalid: %w", err)
	}
	return t.checkSliceBound(bounded)
}
