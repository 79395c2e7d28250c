package journal

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestMemStoreMatchesFlatModel drives the segment store and the thing it
// replaced — one flat byte slice — through the same seeded sequence of
// appends (whole records, single bytes, torn prefixes), truncations and
// loads, and demands the same image and length after every step.
func TestMemStoreMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rec := mustEncode(t, testRecord(t, 1))
	st := NewMemStore()
	model := AppendHeader(nil)
	var held, heldWant []byte // an earlier Load and what it read
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			chunk := rec
			switch rng.Intn(3) {
			case 1:
				chunk = rec[:1]
			case 2:
				chunk = rec[:1+rng.Intn(len(rec)-1)]
			}
			if err := st.Append(chunk); err != nil {
				t.Fatalf("step %d: Append: %v", step, err)
			}
			model = append(model, chunk...)
		case op < 7:
			// Mostly near the end, as recovery cuts; sometimes anywhere,
			// sometimes out of range.
			n := len(model) - rng.Intn(min(len(model), 3*len(rec))+1)
			switch rng.Intn(8) {
			case 0:
				n = rng.Intn(len(model) + 1)
			case 1:
				n = len(model) + 1 + rng.Intn(3)
			}
			err := st.Truncate(int64(n))
			if (err != nil) != (n > len(model)) {
				t.Fatalf("step %d: Truncate(%d) of %d bytes: err = %v", step, n, len(model), err)
			}
			if err == nil {
				model = model[:n]
			}
		default:
			held = mustLoad(t, st)
			heldWant = bytes.Clone(held)
		}
		if st.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, the model holds %d", step, st.Len(), len(model))
		}
		if got := mustLoad(t, st); !bytes.Equal(got, model) {
			t.Fatalf("step %d: the image (%d bytes) differs from the model (%d bytes)", step, len(got), len(model))
		}
		// A loaded image belongs to the caller: nothing the store does
		// afterwards reaches it.
		if !bytes.Equal(held, heldWant) {
			t.Fatalf("step %d: an image loaded earlier changed under its holder", step)
		}
	}
	if err := st.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
	// And the caller may scribble on what it loaded.
	img := mustLoad(t, st)
	for i := range img {
		img[i] ^= 0xff
	}
	if !bytes.Equal(mustLoad(t, st), model) {
		t.Fatal("writing to a loaded image changed the store")
	}
}

// TestMemStoreAppendCostsItsRecord: an append allocates the record's own
// segment (and, amortised, the spine that lists the segments) — nothing
// that grows with what the store already holds. The flat store's
// append-doubling recopied the whole journal every few records.
func TestMemStoreAppendCostsItsRecord(t *testing.T) {
	rec := make([]byte, 100<<10)
	for _, held := range []int{0, 100} {
		st := NewMemStore()
		for i := 0; i < held; i++ {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1.1 {
			t.Errorf("an append to a store holding %d records makes %.2f allocations, want 1 (its segment) plus the amortised spine", held, allocs)
		}
	}

	// The bytes too: 100 appends of 100 KB allocate about 10 MB in all,
	// not the 50 MB of a slice regrown to hold them.
	st := NewMemStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < 100; k++ {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(100*len(rec)*12/10); got > limit {
		t.Errorf("100 appends of %d bytes allocated %d bytes, want under %d", len(rec), got, limit)
	}
}

// TestReplayAliasesImage documents DecodeAll's contract: a record's
// TableBytes is a window into the image it was decoded from — no copy is
// made — with its capacity clipped, so appending to one cannot reach the
// bytes of the next record.
func TestReplayAliasesImage(t *testing.T) {
	r1, r2 := testRecord(t, 1), testRecord(t, 2)
	img := appendRecords(t, r1, r2)
	pristine := bytes.Clone(img)
	rep, err := DecodeAll(img)
	if err != nil || len(rep.Records) != 2 || rep.TailErr != nil {
		t.Fatalf("DecodeAll: %d records, %v, %v", len(rep.Records), err, rep.TailErr)
	}
	for i, rec := range rep.Records {
		tb := rec.TableBytes
		if !bytes.Equal(tb, []*EpochRecord{r1, r2}[i].TableBytes) {
			t.Fatalf("record %d: table bytes differ from what was appended", i)
		}
		at := bytes.Index(img, tb)
		if at < 0 || &img[at] != &tb[0] {
			t.Fatalf("record %d: TableBytes is a copy, not a window into the image", i)
		}
		if cap(tb) != len(tb) {
			t.Fatalf("record %d: TableBytes has %d bytes of capacity past its length", i, cap(tb)-len(tb))
		}
		_ = append(tb, 0xee) // must reallocate, not write into the image
	}
	if !bytes.Equal(img, pristine) {
		t.Fatal("appending to a record's TableBytes wrote into the image")
	}
	// The flip side, which is why a Replay is for reading: the image's
	// owner writing to it changes what the records say.
	img[bytes.Index(img, rep.Records[1].TableBytes)] ^= 0xff
	if bytes.Equal(rep.Records[1].TableBytes, r2.TableBytes) {
		t.Fatal("the record did not see a write to the image it aliases")
	}
}

// TestAppendRecordFramesInPlace: the record is built where it will live.
// Framing into a buffer with room allocates nothing — no temporary
// payload exists — and a failed append leaves dst as it was.
func TestAppendRecordFramesInPlace(t *testing.T) {
	rec := testRecord(t, 7)
	want := mustEncode(t, rec)
	prefix := []byte("already here")
	buf := make([]byte, 0, len(prefix)+len(want))
	if allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendRecord(append(buf, prefix...), rec)
		if err != nil || !bytes.Equal(out[len(prefix):], want) || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("in-place framing produced a different record (%v)", err)
		}
	}); allocs != 0 {
		t.Errorf("framing into a buffer with room allocates %.0f times, want 0", allocs)
	}
	bad := *rec
	bad.Slots = append([]SlotConfig{{Name: string(make([]byte, 0x10000))}}, rec.Slots...)
	if out, err := AppendRecord(append(buf, prefix...), &bad); err == nil || !bytes.Equal(out, prefix) {
		t.Fatalf("failed append returned %d bytes and err %v, want dst unchanged and an error", len(out), err)
	}
}
