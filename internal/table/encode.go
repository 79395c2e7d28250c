package table

// The binary table format is the analogue of the paper's "compiled,
// binary format" that the userspace planner pushes to the hypervisor via
// a hypercall. It is versioned, little-endian, and self-contained: the
// dispatcher needs nothing else to start enacting the schedule.
const (
	formatMagic   = "TBLU"
	formatVersion = uint16(1)
)

const (
	flagCapped = 1 << iota
	flagSplit
)

// EncodedSize returns the exact number of bytes Encode will produce.
// This is what the Fig. 4 memory-overhead experiment measures.
func (t *Table) EncodedSize() int {
	n := 4 + 2 + 8 + 8 + 4 + 4 // magic, version, generation, len, numCores, numVCPUs
	for _, v := range t.VCPUs {
		n += 2 + len(v.Name) + 1 + 4 + 8 + 8
	}
	for _, ct := range t.Cores {
		n += 4 + 8 + 4 + len(ct.Allocs)*20 + 4 + len(ct.slices)*4
	}
	return n
}
