package faults

import (
	"bytes"
	"errors"
	"testing"

	"tableau/internal/journal"
)

func crashRecord(version uint64) []byte {
	rec, err := journal.AppendRecord(nil, &journal.EpochRecord{
		Version: version,
		Slots: []journal.SlotConfig{
			{Name: "vm", UtilNum: 1, UtilDen: 4, LatencyGoal: 30_000_000, Active: true},
		},
		TableBytes: []byte("payload-stand-in"),
	}, nil)
	if err != nil {
		panic(err)
	}
	return rec
}

func TestCrashPlanValidate(t *testing.T) {
	if err := (CrashPlan{AtAppend: 0, Kind: CrashTorn}).Validate(); err == nil {
		t.Fatal("0-based append accepted")
	}
	if err := (CrashPlan{AtAppend: 1, Kind: "meteor"}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range CrashKinds {
		if err := (CrashPlan{AtAppend: 1, Kind: k}).Validate(); err != nil {
			t.Fatalf("kind %s rejected: %v", k, err)
		}
	}
}

// TestCrashKindsSurvivingImage drives each kind at append 2 of 3 and
// checks exactly what the journal replay finds in the surviving image.
func TestCrashKindsSurvivingImage(t *testing.T) {
	for _, kind := range CrashKinds {
		t.Run(kind, func(t *testing.T) {
			cs, err := NewCrashStore(journal.NewMemStore(), CrashPlan{AtAppend: 2, Kind: kind, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Append(crashRecord(1)); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			if cs.Crashed() {
				t.Fatal("crashed before the planned append")
			}
			if err := cs.Append(crashRecord(2)); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append 2: err = %v, want ErrCrashed", err)
			}
			if !cs.Crashed() || cs.Appends() != 2 {
				t.Fatalf("Crashed=%v Appends=%d after the crash", cs.Crashed(), cs.Appends())
			}
			// The dead process can do nothing more.
			if err := cs.Append(crashRecord(3)); !errors.Is(err, ErrCrashed) {
				t.Fatal("post-crash append accepted")
			}
			if err := cs.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatal("post-crash sync accepted")
			}
			if _, err := cs.Load(); !errors.Is(err, ErrCrashed) {
				t.Fatal("post-crash load accepted")
			}

			img, err := cs.Surviving()
			if err != nil {
				t.Fatalf("Surviving: %v", err)
			}
			rep, err := journal.DecodeAll(img)
			if err != nil {
				t.Fatalf("DecodeAll: %v", err)
			}
			switch kind {
			case CrashPreAppend:
				if len(rep.Records) != 1 || rep.TailErr != nil {
					t.Fatalf("pre-append: %d records (tail %v), want 1 clean", len(rep.Records), rep.TailErr)
				}
			case CrashPostAppend:
				if len(rep.Records) != 2 || rep.TailErr != nil {
					t.Fatalf("post-append: %d records (tail %v), want 2 clean", len(rep.Records), rep.TailErr)
				}
				if rep.Records[1].Version != 2 {
					t.Fatalf("post-append: recovered version %d, want 2", rep.Records[1].Version)
				}
			case CrashTorn, CrashBitFlip:
				if len(rep.Records) != 1 {
					t.Fatalf("%s: %d intact records, want 1", kind, len(rep.Records))
				}
				if rep.TailErr == nil {
					t.Fatalf("%s: damage not reported", kind)
				}
			}
			if rep.Records[0].Version != 1 {
				t.Fatalf("first record version %d, want 1", rep.Records[0].Version)
			}
		})
	}
}

// TestCrashTornDeterministic pins that the torn prefix is a pure
// function of the seed.
func TestCrashTornDeterministic(t *testing.T) {
	image := func(seed int64) []byte {
		cs, err := NewCrashStore(journal.NewMemStore(), CrashPlan{AtAppend: 1, Kind: CrashTorn, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_ = cs.Append(crashRecord(1))
		img, err := cs.Surviving()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if !bytes.Equal(image(7), image(7)) {
		t.Fatal("same seed produced different torn images")
	}
	a, b := image(7), image(8)
	if bytes.Equal(a, b) {
		t.Log("seeds 7 and 8 tore at the same length (possible, just unlikely)")
	}
	full := journal.AppendHeader(nil)
	full = append(full, crashRecord(1)...)
	if len(a) >= len(full) {
		t.Fatalf("torn image (%d bytes) is not a strict prefix of %d", len(a), len(full))
	}
}

// TestCrashNeverFires: a plan pointing past the run's appends is a
// clean shutdown.
func TestCrashNeverFires(t *testing.T) {
	cs, err := NewCrashStore(journal.NewMemStore(), CrashPlan{AtAppend: 99, Kind: CrashBitFlip, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := cs.Append(crashRecord(v)); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
	}
	if cs.Crashed() {
		t.Fatal("crash fired without reaching its append")
	}
	if err := cs.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCrashStoreCompact: an idle or armed crash store forwards compaction
// to a store that has the capability (and says so when it has not), a
// compaction is not an append — the crash point still counts appends
// only — and once the crash fires, Compact is refused like every other
// operation, so the surviving image is exactly what the crash left.
func TestCrashStoreCompact(t *testing.T) {
	cs, err := NewCrashStore(journal.NewMemStore(), CrashPlan{AtAppend: 4, Kind: CrashPostAppend, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := cs.Append(crashRecord(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Compact(2); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cs.Appends() != 3 || cs.Crashed() {
		t.Fatalf("compaction moved the crash point: %d appends, crashed %v", cs.Appends(), cs.Crashed())
	}
	if err := cs.Append(crashRecord(4)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append 4: err = %v, want the crash", err)
	}
	img, err := cs.Surviving()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.DecodeAll(img)
	if err != nil || len(rep.Records) != 2 || rep.Records[0].Version != 3 || rep.Records[1].Version != 4 {
		t.Fatalf("surviving image: %+v, %v; want records 3 and 4", rep, err)
	}
	if err := cs.Compact(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact after the crash: err = %v, want ErrCrashed", err)
	}
	if after, _ := cs.Surviving(); !bytes.Equal(after, img) {
		t.Fatal("a refused compaction changed the surviving image")
	}

	plain := NewIdleCrashStore(struct{ journal.Store }{journal.NewMemStore()})
	if err := plain.Compact(0); err == nil {
		t.Fatal("compaction forwarded to a store without the capability")
	}
}
