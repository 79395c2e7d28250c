package plannersvc

import (
	"net/http"
	"testing"

	"tableau/internal/journal"
	"tableau/internal/table"
)

// TestPlanJournalAuditsServedPlans: with a journal attached, every
// successful /plan appends one replayable record carrying the
// requested population and the exact table the client received, and
// /healthz surfaces the counters.
func TestPlanJournalAuditsServedPlans(t *testing.T) {
	s, ts := newTestServer(t)
	mem := journal.NewMemStore()
	s.SetJournal(journal.NewWriter(mem))

	c := &Client{BaseURL: ts.URL}
	tbl1, _, err := c.Plan(testRequest(4, 20_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Plan(testRequest(6, 30_000_000)); err != nil {
		t.Fatal(err)
	}
	// A failed request must not journal anything.
	resp, err := http.Post(ts.URL+"/plan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("empty request served")
	}

	if got := s.JournalRecords(); got != 2 {
		t.Fatalf("JournalRecords = %d, want 2", got)
	}
	img, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.DecodeAll(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2 || rep.TailErr != nil {
		t.Fatalf("replayed %d records (tail %v), want 2 clean", len(rep.Records), rep.TailErr)
	}
	rec := rep.Records[0]
	if rec.Version != 1 || len(rec.Slots) != 4 {
		t.Fatalf("record 1: version %d, %d slots", rec.Version, len(rec.Slots))
	}
	if rec.Slots[0].Name != "vma" || rec.Slots[0].UtilDen != 4 || !rec.Slots[0].Active {
		t.Fatalf("record 1 slot 0 = %+v", rec.Slots[0])
	}
	jt, err := table.DecodeBytes(rec.TableBytes)
	if err != nil {
		t.Fatalf("decoding journaled table: %v", err)
	}
	if jt.Len != tbl1.Len || len(jt.VCPUs) != len(tbl1.VCPUs) {
		t.Fatalf("journaled table (len %d, %d vcpus) differs from served (len %d, %d vcpus)",
			jt.Len, len(jt.VCPUs), tbl1.Len, len(tbl1.VCPUs))
	}
	if len(rec.Guarantees) != 4 {
		t.Fatalf("record 1 carries %d guarantees, want 4", len(rec.Guarantees))
	}

	code, h := getHealth(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.JournalRecords == nil || *h.JournalRecords != 2 {
		t.Fatalf("healthz journal_records = %v, want 2", h.JournalRecords)
	}
	if h.JournalErrors == nil || *h.JournalErrors != 0 {
		t.Fatalf("healthz journal_errors = %v, want 0", h.JournalErrors)
	}
}

// TestDrainSyncsJournal pins the shutdown contract the daemon relies
// on for SIGTERM/SIGINT: StartDrain both flips /plan to 503 and syncs
// the plan journal, so everything served before the drain is durable
// even if the process is killed inside the drain window.
func TestDrainSyncsJournal(t *testing.T) {
	s, ts := newTestServer(t)
	fs := &syncCountingStore{Store: journal.NewMemStore()}
	s.SetJournal(journal.NewWriter(fs))

	c := &Client{BaseURL: ts.URL}
	if _, _, err := c.Plan(testRequest(4, 20_000_000)); err != nil {
		t.Fatal(err)
	}
	if fs.syncs != 0 {
		t.Fatalf("journal synced %d times before drain", fs.syncs)
	}
	s.StartDrain()
	if fs.syncs != 1 {
		t.Fatalf("StartDrain synced %d times, want 1", fs.syncs)
	}
	// Draining: no new plans, so no new records.
	if _, _, err := c.Plan(testRequest(4, 20_000_000)); err == nil {
		t.Fatal("plan served while draining")
	}
	if got := s.JournalRecords(); got != 1 {
		t.Fatalf("JournalRecords = %d after drained request, want 1", got)
	}
	code, h := getHealth(t, ts.URL)
	if code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz while draining = %d/%q", code, h.Status)
	}
}

// syncCountingStore counts explicit Sync calls on the wrapped store.
type syncCountingStore struct {
	journal.Store
	syncs int
}

func (s *syncCountingStore) Sync() error {
	s.syncs++
	return s.Store.Sync()
}
