//go:build race

// Package israce reports whether the race detector is compiled in.
// Allocation-ceiling tests over pooled scratch consult it: under the
// detector sync.Pool drops a quarter of what it is handed, on purpose,
// so exact counts only hold without it.
package israce

// Enabled is true in -race builds.
const Enabled = true
