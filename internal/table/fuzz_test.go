package table_test

// The decoder consumes tables that crossed a network (plannersvc) or a
// file system, so it must hold up against truncated, bit-flipped, and
// adversarial inputs: never panic, and never return a table whose slice
// index would send the dispatcher out of bounds or past its memory
// bound. The corpus seeds are round-tripped planner output — realistic
// canonical encodings whose mutations explore the format's actual
// structure, not just random bytes. Run with `make fuzz` (or
// `go test -fuzz FuzzTableDecode`).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tableau/internal/planner"
	"tableau/internal/table"
)

// corpusTables builds a few representative planner outputs: single- and
// multi-core, uniform and mixed-latency populations, plus one hand-built
// table with an empty core.
func corpusTables(tb testing.TB) [][]byte {
	var out [][]byte
	add := func(cores, vms int, goal int64) {
		specs := make([]planner.VCPUSpec, vms)
		for i := range specs {
			g := goal
			if i%3 == 2 {
				g = goal * 2
			}
			specs[i] = planner.VCPUSpec{
				Name:        fmt.Sprintf("vm%d", i),
				Util:        planner.Util{Num: 1, Den: 4},
				LatencyGoal: g,
				Capped:      i%2 == 0,
			}
		}
		res, err := planner.Plan(specs, planner.Options{Cores: cores})
		if err != nil {
			tb.Fatalf("corpus plan (%d cores, %d vms): %v", cores, vms, err)
		}
		var buf bytes.Buffer
		if err := res.Table.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	add(1, 3, 20_000_000)
	add(2, 8, 20_000_000)
	add(4, 12, 10_000_000)

	// A hand-built table, one core empty.
	bare := &table.Table{
		Len: 1_000_000,
		Cores: []table.CoreTable{
			{Core: 0, Allocs: []table.Alloc{{Start: 0, End: 400_000, VCPU: 0}, {Start: 600_000, End: 1_000_000, VCPU: 1}}},
			{Core: 1},
		},
		VCPUs: []table.VCPUInfo{{Name: "a", HomeCore: 0}, {Name: "b", HomeCore: 0}},
	}
	var buf bytes.Buffer
	if err := bare.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	out = append(out, buf.Bytes())
	return out
}

func FuzzTableDecode(f *testing.F) {
	corpus := corpusTables(f)
	// The epoch before each input in a chain, whose cores and names a
	// full input may share and a delta input is decoded on top of.
	prevEnc := corpus[1]
	prev, err := table.DecodeBytes(prevEnc)
	if err != nil {
		f.Fatal(err)
	}
	seeds := corpus
	// The delta encodings of the corpus against prev seed the delta path.
	for _, enc := range corpus {
		tbl, err := table.DecodeBytes(enc)
		if err != nil {
			f.Fatal(err)
		}
		delta, err := tbl.AppendEncodedDelta(nil, prev)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, delta)
	}
	for _, enc := range seeds {
		f.Add(enc)
		// Truncations and bit flips of canonical encodings steer the
		// fuzzer into every section of the format.
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		for _, pos := range []int{8, len(enc) / 3, 2 * len(enc) / 3} {
			flipped := append([]byte(nil), enc...)
			flipped[pos] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := table.DecodeBytes(data)
		// The streaming decoder this one replaced is the oracle: the same
		// verdict on every input, and the same table when it is accepted.
		ref, rerr := table.DecodeReference(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeBytes err = %v, reference err = %v", err, rerr)
		}
		chained, cerr := table.DecodeChain([][]byte{prevEnc, data}, 1)
		if !bytes.HasPrefix(data, []byte("TBLD")) {
			// A full encoding decodes after prev as it does alone: sharing
			// changes memory, never the verdict or the table.
			if (err == nil) != (cerr == nil) {
				t.Fatalf("DecodeBytes err = %v, DecodeChain err = %v", err, cerr)
			}
			if err == nil && !reflect.DeepEqual(chained[0], tbl) {
				t.Fatal("DecodeChain and DecodeBytes disagree on an accepted table")
			}
		} else if cerr == nil {
			// A delta is as untrusted as a full encoding: an accepted one is
			// a valid table whose own delta against prev decodes back to it.
			dt := chained[0]
			if err := dt.Validate(); err != nil {
				t.Fatalf("DecodeChain accepted an invalid delta: %v", err)
			}
			re, err := dt.AppendEncodedDelta(nil, prev)
			if err != nil {
				t.Fatalf("re-encode of an accepted delta failed: %v", err)
			}
			if back, err := table.DecodeChain([][]byte{prevEnc, re}, 1); err != nil || !reflect.DeepEqual(back[0], dt) {
				t.Fatalf("an accepted delta does not round-trip: %v", err)
			}
		}
		if err != nil {
			return // rejected, fine — just must not panic
		}
		if !reflect.DeepEqual(tbl, ref) {
			t.Fatal("DecodeBytes and the reference decoder disagree on an accepted table")
		}
		// An accepted table must uphold every dispatcher-facing
		// invariant, not merely have parsed.
		if err := tbl.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid table: %v", err)
		}
		// The index an installer builds for it must check out, and both
		// lookups must be safe, and agree, at arbitrary times on every core.
		x := table.NewIndex(tbl, nil, nil)
		if err := x.Check(tbl); err != nil {
			t.Fatalf("the index built for an accepted table is corrupt: %v", err)
		}
		for c := range tbl.Cores {
			for _, now := range []int64{0, 1, tbl.Len / 2, tbl.Len - 1, tbl.Len, tbl.Len + tbl.Len/2, 10 * tbl.Len} {
				vcpu, reserved, until := tbl.Lookup(c, now)
				if until <= now {
					t.Fatalf("Lookup(%d, %d) returned non-advancing until %d", c, now, until)
				}
				if reserved && (vcpu < 0 || vcpu >= len(tbl.VCPUs)) {
					t.Fatalf("Lookup(%d, %d) returned out-of-range vcpu %d", c, now, vcpu)
				}
				if v, r, u := x.Lookup(tbl, c, now); v != vcpu || r != reserved || u != until {
					t.Fatalf("Index.Lookup(%d, %d) = (%d,%v,%d), Lookup = (%d,%v,%d)", c, now, v, r, u, vcpu, reserved, until)
				}
			}
		}
		// Accepted tables must round-trip: re-encoding and decoding may
		// not fail or change what the dispatcher would see.
		var buf bytes.Buffer
		if err := tbl.Encode(&buf); err != nil {
			t.Fatalf("re-encode of accepted table failed: %v", err)
		}
		if _, err := table.DecodeBytes(buf.Bytes()); err != nil {
			t.Fatalf("re-decode of accepted table failed: %v", err)
		}
	})
}
