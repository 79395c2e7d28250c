// Package journal is the durable write-ahead epoch log under the churn
// control plane. Every committed Flush of a core.Controller appends one
// checksummed, length-prefixed record carrying the full epoch — the
// population snapshot (including inactive spares and failed cores), the
// guarantees, and the table in the compact wire encoding — so a host
// crash mid-storm loses nothing that was committed: core.Recover
// replays the journal, truncates a torn or corrupted tail at the last
// record whose CRC verifies, and rebuilds the controller bit-for-bit on
// the last committed epoch.
//
// The journal is the commit point: a flush whose record cannot be
// appended rolls back, so the log and the installed epoch history never
// disagree. Storage is pluggable through Store — an in-memory store for
// simulations and crash-point tests, a file-backed store with a
// configurable fsync policy and atomic-rename truncation for daemons.
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
// Record payload (all little-endian):
//
//	u8  kind (1 = epoch)
//	u64 epoch version
//	u32 slot count
//	  per slot: u16 nameLen | name | u8 flags (bit0 capped, bit1 active)
//	            i64 utilNum | i64 utilDen | i64 latencyGoal
//	u32 failed-core count | u32 core id each
//	u32 guarantee count
//	  per guarantee: u32 vcpu | u64 service | u64 window | u64 maxBlackout
//	u32 tableLen | table bytes (compact TBLU encoding, slice index omitted)
const (
	fileMagic   = "TBJL"
	fileVersion = uint16(1)

	// KindEpoch is the only record kind today; the byte exists so a
	// future checkpoint/compaction record can share the framing.
	KindEpoch = byte(1)
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
type EpochRecord struct {
	Version     uint64
	Slots       []SlotConfig
	FailedCores []int
	Guarantees  []table.Guarantee
	// TableBytes is the compact TBLU wire encoding of the epoch's table
	// (table.DecodeBytes rebuilds the slice index). In a record DecodeAll
	// returned it is a read-only window into the decoded image.
	TableBytes []byte
}

// AppendHeader appends the journal file header to dst.
func AppendHeader(dst []byte) []byte {
	dst = append(dst, fileMagic...)
	return binary.LittleEndian.AppendUint16(dst, fileVersion)
}

// AppendRecord appends one framed, CRC'd epoch record to dst. The
// payload is built in place behind a hole for the frame, which is
// filled in once the payload's length and checksum are known.
func AppendRecord(dst []byte, r *EpochRecord) ([]byte, error) {
	hole := len(dst)
	framed, err := appendPayload(append(dst, make([]byte, frameOverhead)...), r)
	if err != nil {
		return dst, err
	}
	payload := framed[hole+frameOverhead:]
	binary.LittleEndian.PutUint32(framed[hole:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(framed[hole+4:], crc32.Checksum(payload, castagnoli))
	return framed, nil
}

func appendPayload(dst []byte, r *EpochRecord) ([]byte, error) {
	le := binary.LittleEndian
	dst = append(dst, KindEpoch)
	dst = le.AppendUint64(dst, r.Version)
	dst = le.AppendUint32(dst, uint32(len(r.Slots)))
	for _, s := range r.Slots {
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
	dst = le.AppendUint32(dst, uint32(len(r.TableBytes)))
	dst = append(dst, r.TableBytes...)
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
// Records alias the image: each record's TableBytes is a window into
// the data DecodeAll was given (capacity clipped, so an append cannot
// run into the next record), not a copy. A Replay is for reading; a
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
		rec, next, err := decodeRecord(data, off)
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

// decodeRecord decodes the framed record at off, returning it and the
// offset of the next record. Any shortfall or mismatch is an error the
// caller treats as the torn/corrupt tail.
func decodeRecord(data []byte, off int) (EpochRecord, int, error) {
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
	rec, err := decodePayload(payload)
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

func decodePayload(payload []byte) (EpochRecord, error) {
	p := &payloadReader{b: payload}
	var rec EpochRecord
	if kind := p.u8(); p.err == nil && kind != KindEpoch {
		return rec, fmt.Errorf("unknown record kind %d", kind)
	}
	rec.Version = p.u64()
	nslots := p.count("slot")
	// Chunked growth: a huge declared count followed by a truncated body
	// must not allocate up front.
	rec.Slots = make([]SlotConfig, 0, min(nslots, allocChunk))
	for i := 0; i < nslots && p.err == nil; i++ {
		var s SlotConfig
		s.Name = string(p.take(int(p.u16())))
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
		rec.Slots = append(rec.Slots, s)
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
	rec.TableBytes = slices.Clip(p.take(int(ntbl)))
	if p.err != nil {
		return rec, p.err
	}
	if p.off != len(payload) {
		return rec, fmt.Errorf("%d trailing payload bytes", len(payload)-p.off)
	}
	return rec, nil
}
