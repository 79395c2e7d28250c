package plannersvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tableau/internal/table"
)

func testRequest(n int, goal int64) PlanRequest {
	req := PlanRequest{Cores: 2}
	for i := 0; i < n; i++ {
		req.VMs = append(req.VMs, VMRequest{
			Name:          "vm" + string(rune('a'+i)),
			UtilNum:       1,
			UtilDen:       4,
			LatencyGoalNS: goal,
			Capped:        true,
		})
	}
	return req
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(16)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestPlanRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	c := &Client{BaseURL: ts.URL}
	tbl, resp, err := c.Plan(testRequest(8, 20_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stage != "partitioned" {
		t.Errorf("stage = %s", resp.Stage)
	}
	if len(resp.Guarantees) != 8 {
		t.Errorf("guarantees = %d", len(resp.Guarantees))
	}
	if tbl.Len != resp.TableLengthNS {
		t.Errorf("table length mismatch: %d vs %d", tbl.Len, resp.TableLengthNS)
	}
	// The decoded table is dispatch-ready: valid, with reservations to
	// index.
	if err := tbl.Validate(); err != nil || tbl.SliceCount() == 0 {
		t.Errorf("decoded table is not dispatch-ready: %v", err)
	}
	// Every VM has reservations.
	for id := range tbl.VCPUs {
		if len(tbl.VCPUSlots(id)) == 0 {
			t.Errorf("vcpu %d has no reservations", id)
		}
	}
}

func TestCentralCacheSharedAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t)
	c := &Client{BaseURL: ts.URL}
	req := testRequest(8, 20_000_000)
	if _, r1, err := c.Plan(req); err != nil || r1.Cached {
		t.Fatalf("first plan: cached=%v err=%v", r1 != nil && r1.Cached, err)
	}
	_, r2, err := c.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second identical request not served from the cache")
	}
	hits, misses := s.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, ts := newTestServer(t)
	c := &Client{BaseURL: ts.URL}
	over := testRequest(8, 20_000_000)
	over.Cores = 1 // 8 x 25% on one core: over-utilized
	_, _, err := c.Plan(over)
	if err == nil || !strings.Contains(err.Error(), "over-utilized") {
		t.Errorf("err = %v, want over-utilization rejection", err)
	}
	empty := PlanRequest{Cores: 2}
	if _, _, err := c.Plan(empty); err == nil {
		t.Error("empty request accepted")
	}
}

func TestHandlerRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/plan", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body = %d", resp.StatusCode)
	}
}

// TestHandlerRejectsUnknownFields: a body naming a field PlanRequest
// does not have, such as an option the planner lacks, is refused with a
// 400 naming it, never planned without it.
func TestHandlerRejectsUnknownFields(t *testing.T) {
	_, ts := newTestServer(t)
	good, err := json.Marshal(testRequest(4, 20_000_000))
	if err != nil {
		t.Fatal(err)
	}
	withField := func(field string) string {
		return `{"` + field + `": 1, ` + string(good[1:])
	}
	for _, tc := range []struct {
		name, body string
		code       int
		names      string // in the error text
	}{
		{"known fields", string(good), http.StatusOK, ""},
		{"split compensation", withField("split_compensation_ppm"), http.StatusBadRequest, `"split_compensation_ppm"`},
		{"split rotation", withField("split_rotation"), http.StatusBadRequest, `"split_rotation"`},
		{"VM field", strings.Replace(string(good), `"capped"`, `"affinity":[0],"capped"`, 1), http.StatusBadRequest, `"affinity"`},
		{"data after the request", string(good) + `{}`, http.StatusBadRequest, "data after the request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code || !strings.Contains(e.Error, tc.names) {
				t.Errorf("status %d, error %q; want %d naming %s", resp.StatusCode, e.Error, tc.code, tc.names)
			}
		})
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestClientRejectsCorruptTable(t *testing.T) {
	// A hostile/buggy server returning a corrupt table must not reach
	// the dispatcher: the client validates via table.Decode.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := PlanResponse{Table: "AAAA"} // not a valid table
		_ = json.NewEncoder(w).Encode(resp)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	if _, _, err := c.Plan(testRequest(2, 20_000_000)); err == nil {
		t.Error("corrupt table accepted")
	}
}

func TestResponseTableMatchesDirectPlan(t *testing.T) {
	_, ts := newTestServer(t)
	c := &Client{BaseURL: ts.URL}
	req := testRequest(4, 20_000_000)
	req.Peephole = true
	tbl, resp, err := c.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	// Re-verify the guarantees from the response against the table.
	var gs []table.Guarantee
	for _, g := range resp.Guarantees {
		gs = append(gs, table.Guarantee{VCPU: g.VCPU, Service: g.ServiceNS, WindowLen: g.WindowNS, MaxBlackout: g.MaxBlackout})
	}
	if err := tbl.Check(gs); err != nil {
		t.Errorf("remote table fails its own advertised guarantees: %v", err)
	}
}

// TestCachedFlagExactUnderConcurrency pins what "cached" means: this
// request's own lookup hit. It used to be inferred from the shared
// cache's global hit counter moving while the request ran, so a miss
// that overlapped another request's hit also answered cached=true. The
// cache holds two of the three populations in play, so misses keep
// happening alongside hits; the responses that claim a hit must add up
// to exactly the hits /healthz counts.
func TestCachedFlagExactUnderConcurrency(t *testing.T) {
	s := NewServer(2)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines, requests = 8, 25
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &Client{BaseURL: ts.URL}
			for i := 0; i < requests; i++ {
				goal := int64(10+(g+i)%3*10) * 1_000_000
				_, resp, err := c.Plan(testRequest(8, goal))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Cached {
					claimed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.CacheHits+h.CacheMisses != goroutines*requests {
		t.Fatalf("healthz counts %d lookups, want %d", h.CacheHits+h.CacheMisses, goroutines*requests)
	}
	if h.CacheMisses <= 3 {
		t.Fatalf("only %d misses: the cache did not thrash, so no miss could overlap a hit", h.CacheMisses)
	}
	if got := claimed.Load(); got != h.CacheHits {
		t.Errorf("%d responses said cached, /healthz counts %d hits", got, h.CacheHits)
	}
}
