package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tableau/internal/dispatch"
	"tableau/internal/journal"
	"tableau/internal/planner"
)

// The journal-image golden pins the durable byte stream: the SHA-256 of
// a MemStore's image after a fixed flush script must equal the digest
// committed in testdata/journal_image_digests.txt. A change that claims
// "no journal or table format change" passes it unchanged; -update
// regenerates the file and is for changes that mean to alter a format
// or a planning decision.
var updateGolden = flag.Bool("update", false, "regenerate testdata/journal_image_digests.txt")

const goldenFile = "testdata/journal_image_digests.txt"

// denseOps draws one dense-host churn batch the way the benchmark does:
// three distinct slots change state, biased so the host stays between
// 168 and 192 resident.
func denseOps(rng *rand.Rand, on, off *[]int) []Op {
	const vms, floor = 192, 168
	ops := make([]Op, 0, 3)
	resident := len(*on)
	for k := 0; k < 3; k++ {
		if len(*off) > 0 && rng.Intn(vms-floor) < vms-resident {
			j := rng.Intn(len(*off))
			ops = append(ops, Op{Kind: OpActivate, Slot: (*off)[j]})
			(*off)[j] = (*off)[len(*off)-1]
			*off = (*off)[:len(*off)-1]
			resident++
		} else {
			j := rng.Intn(len(*on))
			ops = append(ops, Op{Kind: OpDeactivate, Slot: (*on)[j]})
			(*on)[j] = (*on)[len(*on)-1]
			*on = (*on)[:len(*on)-1]
			resident--
		}
	}
	for _, o := range ops {
		if o.Kind == OpActivate {
			*on = append(*on, o.Slot)
		} else {
			*off = append(*off, o.Slot)
		}
	}
	return ops
}

// denseJournaledHost is the benchmark's dense host (16 cores, 192 VMs of
// 1/16, incremental planning, MaxHistory 64) journaling into a MemStore,
// after the given number of seeded three-slot churn flushes.
func denseJournaledHost(tb testing.TB, seed int64, flushes int) (*Controller, *journal.MemStore) {
	tb.Helper()
	_, ctrl := stormRig(tb, true)
	store := journal.NewMemStore()
	if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	on := make([]int, 192)
	for i := range on {
		on[i] = i
	}
	var off []int
	for i := 0; i < flushes; i++ {
		ctrl.SubmitBatch(denseOps(rng, &on, &off))
		tr, err := ctrl.Flush()
		if err != nil || tr == nil || tr.Version == 0 || len(tr.Rejected) > 0 {
			tb.Fatalf("dense flush %d did not commit cleanly: %+v, %v", i, tr, err)
		}
	}
	return ctrl, store
}

// mixedJournaledHost is a fleet-shaped host — 8 cores, a resident slot
// and 19 guest slots recycled across sizes, latency goals and both
// tenancy classes — after a seeded script of place, depart and
// reconfigure flushes. Some flushes reject or shed; the script is fixed,
// so the image is too.
func mixedJournaledHost(tb testing.TB, seed int64, flushes int) (*Controller, *journal.MemStore) {
	tb.Helper()
	utils := []Util{{Num: 1, Den: 16}, {Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}}
	goals := []int64{5_000_000, 10_000_000, 20_000_000}
	resident := VMConfig{Name: "sys", Util: Util{Num: 1, Den: 64}, LatencyGoal: 100_000_000, Capped: true}
	s := NewSystem(8, planner.Options{}, dispatch.Options{})
	s.Cache = planner.NewCache(0)
	if _, err := s.AddVM(resident); err != nil {
		tb.Fatal(err)
	}
	for slot := 1; slot < 20; slot++ {
		cfg := resident
		cfg.Name = fmt.Sprintf("s%d", slot)
		if _, err := s.AddVM(cfg); err != nil {
			tb.Fatal(err)
		}
		if err := s.SetActive(slot, false); err != nil {
			tb.Fatal(err)
		}
	}
	_, res, err := s.Plan()
	if err != nil {
		tb.Fatal(err)
	}
	ctrl, err := NewController(s, benchSink{}, res)
	if err != nil {
		tb.Fatal(err)
	}
	store := journal.NewMemStore()
	if err := ctrl.AttachJournal(journal.NewWriter(store)); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flushes; i++ {
		var ops []Op
		for k := 0; k < 1+rng.Intn(3); k++ {
			slot := 1 + rng.Intn(19)
			if s.Active(slot) && rng.Intn(3) > 0 {
				ops = append(ops, Op{Kind: OpDeactivate, Slot: slot})
				continue
			}
			class := LS
			if rng.Intn(4) == 0 {
				class = BE
			}
			ops = append(ops,
				Op{Kind: OpReconfigure, Slot: slot, Util: utils[rng.Intn(len(utils))],
					LatencyGoal: goals[rng.Intn(len(goals))], SetClass: true, Class: class},
				Op{Kind: OpActivate, Slot: slot})
		}
		ctrl.SubmitBatch(ops)
		// A rolled-back or fully rejected batch journals nothing; that too
		// is part of the pinned script.
		_, _ = ctrl.Flush()
	}
	return ctrl, store
}

func imageDigest(tb testing.TB, store *journal.MemStore) string {
	tb.Helper()
	image, err := store.Load()
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := journal.DecodeAll(image)
	if err != nil || rep.TailErr != nil {
		tb.Fatalf("golden image does not replay cleanly: %v / %v", err, rep.TailErr)
	}
	return fmt.Sprintf("%x bytes=%d records=%d", sha256.Sum256(image), len(image), len(rep.Records))
}

func TestJournalImageGolden(t *testing.T) {
	_, mixed := mixedJournaledHost(t, 11, 40)
	_, dense := denseJournaledHost(t, 12, 20)
	got := []string{
		"mixed8x40 " + imageDigest(t, mixed),
		"dense16x20 " + imageDigest(t, dense),
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/core -run TestJournalImageGolden -update`)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the script produces %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("journal image changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
