package table

// SliceIndex exposes a core's slice index to the external tests that
// check which tables share one.
func (ct *CoreTable) SliceIndex() []int32 { return ct.slices }
