// Package journal is the durable write-ahead epoch log under the churn
// control plane. Every committed Flush of a core.Controller appends one
// checksummed, length-prefixed record of the epoch — the population
// snapshot (including inactive spares and failed cores), the guarantees,
// and the table — so a host crash mid-storm loses nothing that was
// committed: core.Recover replays the journal, truncates a torn or
// corrupted tail at the last record whose CRC verifies, and rebuilds the
// controller bit-for-bit on the last committed epoch.
//
// A record is full or a delta: what changed since the record before it,
// its base, which it names. A delta replays only on top of its base, so
// a run of deltas replays from the full record that starts it.
//
// The journal is the commit point: a flush whose record cannot be
// appended rolls back, so the log and the installed epoch history never
// disagree. Storage is pluggable through Store — an in-memory store for
// simulations and crash-point tests, a file-backed store with a
// configurable fsync policy and atomic-rename truncation for daemons. A
// suffix of the journal that starts with a full record replays on its
// own: a store that can drop its oldest records (Compactor) lets a
// controller with a bounded epoch ring keep only the records that
// rebuild it.
//
// Delta records are a record kind, not a file version, so the file
// version is still 1; a build that predates them reads a journal as torn
// at its first delta, and must not be handed one.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"tableau/internal/table"
)

// File layout:
//
//	header:  magic "TBJL" | u16 version (1)
//	record:  u32 payloadLen | u32 crc32(payload) | payload
//
// Record payload (all little-endian), a full record:
//
//	u8  kind (1 = epoch)
//	u64 epoch version
//	u32 slot count
//	  per slot: u16 nameLen | name | u8 flags (bit0 capped, bit1 active,
//	            bit2 best effort) | i64 utilNum | i64 utilDen | i64 latencyGoal
//	u32 failed-core count | u32 core id each
//	u32 guarantee count
//	  per guarantee: u32 vcpu | u64 service | u64 window | u64 maxBlackout
//	u32 tableLen | table bytes (compact TBLU encoding, no slice index)
//
// and a delta record:
//
//	u8  kind (2 = delta)
//	u64 epoch version
//	u64 base version (the record immediately before this one)
//	u32 slot count
//	u32 changed-slot count
//	  per changed slot, in index order: u32 index | slot as above
//	u32 failed-core count | u32 core id each
//	u32 guarantee count | guarantees as above
//	u32 deltaLen | table delta (table.AppendEncodedDelta against the
//	               base's table)
//
// A delta lists a slot exactly when it differs from the base's at the
// same index or the base has none there: one encoding per record.
const (
	fileMagic   = "TBJL"
	fileVersion = uint16(1)

	// KindEpoch is a full record: the whole epoch.
	KindEpoch = byte(1)
	// KindDelta is a delta record: the epoch as a change to its base.
	KindDelta = byte(2)
)

const (
	slotFlagCapped = 1 << iota
	slotFlagActive
	// slotFlagBE marks a best-effort tenancy class. Old journals never
	// set the bit (it was an unknown — and therefore rejected — flag),
	// so every pre-class record decodes to LS slots and re-encodes
	// bit-identically.
	slotFlagBE
)

// HeaderSize is the fixed file prefix length.
const HeaderSize = len(fileMagic) + 2

// frameOverhead is the per-record framing: length prefix + CRC.
const frameOverhead = 4 + 4

// sanity caps mirror table.DecodeBytes's hardening: a hostile header
// must not force large up-front allocations.
const (
	maxPayload = 64 << 20
	maxCount   = 1 << 20
	allocChunk = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SlotConfig is one VM slot of the journaled population snapshot —
// enough to rebuild core.System's registration exactly, including
// inactive spares (slot ids are vCPU ids, fixed at machine start, so
// recovery must re-register every slot in order).
type SlotConfig struct {
	Name        string
	UtilNum     int64
	UtilDen     int64
	LatencyGoal int64
	Capped      bool
	Active      bool
	// BestEffort marks the BE tenancy class; false is LS.
	BestEffort bool
}

// EpochRecord is one committed epoch as journaled. Writer.Append
// serialises a record before it returns and retains none of its slices,
// so a caller may alias live data into one it appends immediately.
//
// A record is a delta exactly when TableDelta is set, and TableBytes is
// not; Slots is the whole population either way.
type EpochRecord struct {
	Version     uint64
	Slots       []SlotConfig
	FailedCores []int
	Guarantees  []table.Guarantee
	// TableBytes is the compact TBLU wire encoding of the epoch's table
	// (no slice index: an installer builds its own). In a record DecodeAll
	// returned it is a read-only window into the decoded image.
	TableBytes []byte
	// Base and TableDelta make the record a delta: TableDelta is the
	// table's delta encoding against the table of epoch Base, the record
	// before it (table.AppendEncodedDelta), read-only like TableBytes.
	Base       uint64
	TableDelta []byte
}

// TableEncoding is the record's table as journaled. The encodings of
// folded records, from a full one on, are a chain (table.DecodeChain).
func (r *EpochRecord) TableEncoding() []byte {
	if r.TableDelta != nil {
		return r.TableDelta
	}
	return r.TableBytes
}

// AppendHeader appends the journal file header to dst.
func AppendHeader(dst []byte) []byte {
	dst = append(dst, fileMagic...)
	return binary.LittleEndian.AppendUint16(dst, fileVersion)
}

// AppendRecord appends one framed, CRC'd epoch record to dst; a delta
// is written against base, the record before it (a full record ignores
// base). The payload is built in place behind a hole for the frame,
// which is filled in once the payload's length and checksum are known.
func AppendRecord(dst []byte, r, base *EpochRecord) ([]byte, error) {
	hole := len(dst)
	framed, err := appendPayload(append(dst, make([]byte, frameOverhead)...), r, base)
	if err != nil {
		return dst, err
	}
	payload := framed[hole+frameOverhead:]
	binary.LittleEndian.PutUint32(framed[hole:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[hole+4:], crc32.Checksum(payload, castagnoli))
	return framed, nil
}

func appendPayload(dst []byte, r, base *EpochRecord) ([]byte, error) {
	le := binary.LittleEndian
	delta, tbl := r.TableDelta != nil, r.TableBytes
	if !delta {
		dst = append(dst, KindEpoch)
		dst = le.AppendUint64(dst, r.Version)
	} else {
		if base == nil || base.Version != r.Base {
			return dst, fmt.Errorf("journal: delta of epoch %d needs the record of epoch %d as its base", r.Version, r.Base)
		}
		tbl = r.TableDelta
		dst = append(dst, KindDelta)
		dst = le.AppendUint64(dst, r.Version)
		dst = le.AppendUint64(dst, r.Base)
	}
	dst = le.AppendUint32(dst, uint32(len(r.Slots)))
	countAt, n := len(dst), 0
	if delta {
		dst = le.AppendUint32(dst, 0)
	}
	for i, s := range r.Slots {
		if delta {
			if i < len(base.Slots) && s == base.Slots[i] {
				continue
			}
			dst = le.AppendUint32(dst, uint32(i))
			n++
		}
		if len(s.Name) > 0xffff {
			return dst, fmt.Errorf("journal: slot name too long (%d bytes)", len(s.Name))
		}
		dst = le.AppendUint16(dst, uint16(len(s.Name)))
		dst = append(dst, s.Name...)
		var fl byte
		if s.Capped {
			fl |= slotFlagCapped
		}
		if s.Active {
			fl |= slotFlagActive
		}
		if s.BestEffort {
			fl |= slotFlagBE
		}
		dst = append(dst, fl)
		dst = le.AppendUint64(dst, uint64(s.UtilNum))
		dst = le.AppendUint64(dst, uint64(s.UtilDen))
		dst = le.AppendUint64(dst, uint64(s.LatencyGoal))
	}
	if delta {
		le.PutUint32(dst[countAt:], uint32(n))
	}
	dst = le.AppendUint32(dst, uint32(len(r.FailedCores)))
	for _, c := range r.FailedCores {
		dst = le.AppendUint32(dst, uint32(int32(c)))
	}
	dst = le.AppendUint32(dst, uint32(len(r.Guarantees)))
	for _, g := range r.Guarantees {
		dst = le.AppendUint32(dst, uint32(int32(g.VCPU)))
		dst = le.AppendUint64(dst, uint64(g.Service))
		dst = le.AppendUint64(dst, uint64(g.WindowLen))
		dst = le.AppendUint64(dst, uint64(g.MaxBlackout))
	}
	dst = le.AppendUint32(dst, uint32(len(tbl)))
	dst = append(dst, tbl...)
	return dst, nil
}

// Replay is the result of decoding a journal image. A journal whose
// tail is torn (partial record from a crashed append) or corrupt (CRC
// or structural mismatch, e.g. a bit flip) still replays: Records holds
// every intact epoch in append order, Good is the byte offset of the
// end of the last intact record — the truncation point a recovery
// should cut the store back to — and TailErr describes why the bytes
// past Good were abandoned (nil when the journal ends cleanly).
//
// Records alias the image: each record's TableBytes or TableDelta is a
// window into the data DecodeAll was given (capacity clipped, so an
// append cannot run into the next record), not a copy. A Replay is for reading; a
// caller that keeps table bytes beyond the image's life, or that goes on
// writing to the image, copies what it keeps.
type Replay struct {
	Records []EpochRecord
	// Good is the offset just past the last intact record (at least
	// HeaderSize for a journal with a valid header).
	Good int
	// Truncated is the number of tail bytes past Good.
	Truncated int
	// TailErr is non-nil when the tail was torn or corrupt.
	TailErr error
}

// DecodeAll decodes a complete journal image. A missing or foreign
// header is a hard error (nothing is recoverable); anything after a
// valid header degrades to a truncated-tail Replay, never an error —
// crash recovery must make progress from whatever prefix survived.
// A slot name equal to the previous record's at the same index is that
// record's string, not a new one. A delta whose base is not the record
// before it is damage like any other.
func DecodeAll(data []byte) (*Replay, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("journal: image too short for header (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("journal: bad magic %q", data[:len(fileMagic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(fileMagic):]); v != fileVersion {
		return nil, fmt.Errorf("journal: unsupported version %d", v)
	}
	rep := &Replay{Good: HeaderSize}
	off := HeaderSize
	for off < len(data) {
		var prev *EpochRecord
		if n := len(rep.Records); n > 0 {
			prev = &rep.Records[n-1]
		}
		rec, next, err := decodeRecord(data, off, prev)
		if err != nil {
			rep.TailErr = err
			break
		}
		rep.Records = append(rep.Records, rec)
		off = next
		rep.Good = off
	}
	rep.Truncated = len(data) - rep.Good
	if rep.Truncated > 0 && rep.TailErr == nil {
		rep.TailErr = fmt.Errorf("journal: %d trailing bytes", rep.Truncated)
	}
	return rep, nil
}

// FoldEpochs folds a replayed record sequence into the epoch sequence
// the live controller held. An emergency rollback re-commits the
// reverted-to epoch verbatim, so a record whose version does not exceed
// the current top is a revert: pop back to below it, then append. The
// result is strictly increasing in version; the input is not modified.
// A delta's version exceeds its base's, so a delta that survives sits
// on its base: the fold is a chain from its first record, a full one.
func FoldEpochs(recs []EpochRecord) []EpochRecord {
	folded := make([]EpochRecord, 0, len(recs))
	for _, rec := range recs {
		for len(folded) > 0 && folded[len(folded)-1].Version >= rec.Version {
			folded = folded[:len(folded)-1]
		}
		folded = append(folded, rec)
	}
	return folded
}

// frameLen returns the length of the framed record b starts with — frame
// plus the payload its length prefix declares — or an error when b is
// too short to hold it. It reads the frame only: the CRC is not checked.
func frameLen(b []byte) (int, error) {
	if len(b) < frameOverhead {
		return 0, fmt.Errorf("journal: torn frame (%d bytes)", len(b))
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen > maxPayload || len(b)-frameOverhead < plen {
		return 0, fmt.Errorf("journal: torn record (payload %d, have %d)", plen, len(b)-frameOverhead)
	}
	return frameOverhead + plen, nil
}

// decodeRecord decodes the framed record at off, returning it and the
// offset of the next record; prev (nil for the first) is the record
// decoded before it, whose unchanged slot names it reuses. Any shortfall
// or mismatch is an error the caller treats as the torn/corrupt tail.
func decodeRecord(data []byte, off int, prev *EpochRecord) (EpochRecord, int, error) {
	le := binary.LittleEndian
	if len(data)-off < frameOverhead {
		return EpochRecord{}, 0, fmt.Errorf("journal: torn frame at offset %d (%d bytes)", off, len(data)-off)
	}
	plen := int(le.Uint32(data[off:]))
	want := le.Uint32(data[off+4:])
	if plen > maxPayload {
		return EpochRecord{}, 0, fmt.Errorf("journal: implausible payload length %d at offset %d", plen, off)
	}
	if len(data)-off-frameOverhead < plen {
		return EpochRecord{}, 0, fmt.Errorf("journal: torn record at offset %d (payload %d, have %d)",
			off, plen, len(data)-off-frameOverhead)
	}
	payload := data[off+frameOverhead : off+frameOverhead+plen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return EpochRecord{}, 0, fmt.Errorf("journal: CRC mismatch at offset %d (got %08x, want %08x)", off, got, want)
	}
	rec, err := decodePayload(payload, prev)
	if err != nil {
		return EpochRecord{}, 0, fmt.Errorf("journal: record at offset %d: %w", off, err)
	}
	return rec, off + frameOverhead + plen, nil
}

// payloadReader cursors over a record payload with bounds checking.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if len(p.b)-p.off < n {
		p.err = fmt.Errorf("payload truncated at byte %d (need %d of %d)", p.off, n, len(p.b))
		return nil
	}
	out := p.b[p.off : p.off+n]
	p.off += n
	return out
}

func (p *payloadReader) u8() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (p *payloadReader) u16() uint16 {
	b := p.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (p *payloadReader) u32() uint32 {
	b := p.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (p *payloadReader) u64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (p *payloadReader) count(what string) int {
	n := p.u32()
	if p.err == nil && n > maxCount {
		p.err = fmt.Errorf("implausible %s count %d", what, n)
	}
	return int(n)
}

// decodePayload decodes one record payload; prev is the record decoded
// before it (nil for the first). A slot whose name bytes equal those of
// prev's slot at the same index takes prev's string instead of a new
// one: slot names almost never change from one epoch to the next, and
// strings are immutable, so sharing one is safe. A delta must name prev
// as its base and list exactly the slots that differ from prev's.
func decodePayload(payload []byte, prev *EpochRecord) (EpochRecord, error) {
	p := &payloadReader{b: payload}
	var rec EpochRecord
	kind := p.u8()
	if p.err == nil && kind != KindEpoch && kind != KindDelta {
		return rec, fmt.Errorf("unknown record kind %d", kind)
	}
	rec.Version = p.u64()
	if kind == KindDelta {
		rec.Base = p.u64()
		if p.err == nil && (prev == nil || rec.Base != prev.Version || rec.Version <= rec.Base) {
			return rec, fmt.Errorf("delta record of epoch %d on base %d does not follow the record before it", rec.Version, rec.Base)
		}
	}
	nslots := p.count("slot")
	next, listed := -1, 0 // a delta's next listed slot, and how many are left
	if kind == KindDelta {
		listed = p.count("changed-slot")
	}
	// Chunked growth: a huge declared count followed by a truncated body
	// must not allocate up front.
	rec.Slots = make([]SlotConfig, 0, min(nslots, allocChunk))
	for i := 0; i < nslots && p.err == nil; i++ {
		var ps *SlotConfig
		if prev != nil && i < len(prev.Slots) {
			ps = &prev.Slots[i]
		}
		if kind == KindDelta {
			if next < i && listed > 0 {
				if next, listed = int(p.u32()), listed-1; next < i && p.err == nil {
					return rec, fmt.Errorf("delta record lists slot %d out of order", next)
				}
			}
			if next != i {
				if ps == nil {
					return rec, fmt.Errorf("delta record leaves slot %d without a base", i)
				}
				rec.Slots = append(rec.Slots, *ps)
				continue
			}
		}
		var s SlotConfig
		name := p.take(int(p.u16()))
		if ps != nil && ps.Name == string(name) {
			s.Name = ps.Name
		} else {
			s.Name = string(name)
		}
		fl := p.u8()
		if p.err == nil && fl&^(slotFlagCapped|slotFlagActive|slotFlagBE) != 0 {
			return rec, fmt.Errorf("unknown slot flags %#x", fl)
		}
		s.Capped = fl&slotFlagCapped != 0
		s.Active = fl&slotFlagActive != 0
		s.BestEffort = fl&slotFlagBE != 0
		s.UtilNum = int64(p.u64())
		s.UtilDen = int64(p.u64())
		s.LatencyGoal = int64(p.u64())
		if kind == KindDelta && p.err == nil && ps != nil && s == *ps {
			return rec, fmt.Errorf("delta record lists slot %d unchanged", i)
		}
		rec.Slots = append(rec.Slots, s)
	}
	if p.err == nil && (next >= nslots || listed > 0) {
		return rec, fmt.Errorf("delta record lists slots past its %d", nslots)
	}
	nfailed := p.count("failed-core")
	rec.FailedCores = make([]int, 0, min(nfailed, allocChunk))
	for i := 0; i < nfailed && p.err == nil; i++ {
		rec.FailedCores = append(rec.FailedCores, int(int32(p.u32())))
	}
	ngs := p.count("guarantee")
	rec.Guarantees = make([]table.Guarantee, 0, min(ngs, allocChunk))
	for i := 0; i < ngs && p.err == nil; i++ {
		rec.Guarantees = append(rec.Guarantees, table.Guarantee{
			VCPU:        int(int32(p.u32())),
			Service:     int64(p.u64()),
			WindowLen:   int64(p.u64()),
			MaxBlackout: int64(p.u64()),
		})
	}
	ntbl := p.u32()
	if p.err == nil && int(ntbl) > maxPayload {
		p.err = fmt.Errorf("implausible table length %d", ntbl)
	}
	tbl := slices.Clip(p.take(int(ntbl)))
	if p.err != nil {
		return rec, p.err
	}
	if kind == KindDelta {
		rec.TableDelta = tbl
	} else {
		rec.TableBytes = tbl
	}
	if p.off != len(payload) {
		return rec, fmt.Errorf("%d trailing payload bytes", len(payload)-p.off)
	}
	return rec, nil
}
