// Package plannersvc turns the planner into a network service,
// implementing the deployment option of paper Sec. 7.1: "table
// generation may also be offloaded to a faster, independent machine,
// similarly to how jobs are scheduled across data centers, and it is
// trivially possible to centrally cache tables for common
// configurations that are frequently reused."
//
// The service speaks JSON over HTTP on a single endpoint, POST /plan.
// The response carries the planning metadata plus the scheduling table
// in the same binary wire format the dispatcher consumes (base64 in
// JSON), so a host can hand the bytes straight to its hypervisor. A
// shared planner.Cache behind the handler gives the central-cache
// behaviour for free.
package plannersvc

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// VMRequest is one vCPU in a planning request. ID is its vCPU id in the
// planned table (planner.VCPUSpec.ID): strictly increasing over the
// request's VMs, or omitted throughout to number them by position.
type VMRequest struct {
	ID            int    `json:"id,omitempty"`
	Name          string `json:"name"`
	UtilNum       int64  `json:"util_num"`
	UtilDen       int64  `json:"util_den"`
	LatencyGoalNS int64  `json:"latency_goal_ns"`
	Capped        bool   `json:"capped"`
}

// PlanRequest is the body of POST /plan. The daemon refuses a body
// naming a field PlanRequest does not have: planning without an option
// the caller asked for would hand back a table that silently lacks it.
type PlanRequest struct {
	Cores         int         `json:"cores"`
	TableLengthNS int64       `json:"table_length_ns,omitempty"`
	Peephole      bool        `json:"peephole,omitempty"`
	VMs           []VMRequest `json:"vms"`
}

// GuaranteeInfo mirrors table.Guarantee for the wire.
type GuaranteeInfo struct {
	VCPU        int   `json:"vcpu"`
	ServiceNS   int64 `json:"service_ns"`
	WindowNS    int64 `json:"window_ns"`
	MaxBlackout int64 `json:"max_blackout_ns"`
}

// PlanResponse is the body of a successful plan.
type PlanResponse struct {
	Stage         string          `json:"stage"`
	TableLengthNS int64           `json:"table_length_ns"`
	TableBytes    int             `json:"table_bytes"`
	Splits        int             `json:"splits"`
	SwitchesSaved int             `json:"switches_saved"`
	Guarantees    []GuaranteeInfo `json:"guarantees"`
	// Table is the base64-encoded binary scheduling table.
	Table string `json:"table"`
	// Cached reports whether the result came from the central cache.
	Cached bool `json:"cached"`
	// PlanMS is the server-side planning time in milliseconds (0 for
	// cache hits).
	PlanMS float64 `json:"plan_ms"`
	// Source is "" for a live remote response; the client's fallback
	// path sets it to "local" when the table was planned on-host.
	Source string `json:"source,omitempty"`
}

// errorResponse is the body of a failed plan.
type errorResponse struct {
	Error string `json:"error"`
}

// Server is the planning daemon. Create with NewServer and mount its
// Handler.
type Server struct {
	cache   *planner.Cache
	started time.Time

	inflight atomic.Int64
	draining atomic.Bool
	breaker  atomic.Pointer[Breaker]

	// jmu serializes the plan journal: appends take a sequence number
	// and must reach the writer in that order.
	jmu         sync.Mutex
	journal     *journal.Writer
	jseq        uint64
	journalErrs atomic.Int64

	// DrainWait bounds how long StartDrain waits for in-flight requests
	// to finish before syncing the journal (<= 0 selects 5s). A drain
	// that times out logs the stragglers and syncs anyway — shutdown
	// must not hang on a wedged request.
	DrainWait time.Duration

	// Logf receives server-side diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// NewServer returns a server backed by a result cache of the given
// capacity (<= 0 selects the default).
func NewServer(cacheSize int) *Server {
	return &Server{cache: planner.NewCache(cacheSize), started: time.Now()}
}

// CacheStats reports the central cache's hit/miss counters.
func (s *Server) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// QueueDepth reports the number of planning requests currently being
// served.
func (s *Server) QueueDepth() int64 { return s.inflight.Load() }

// StartDrain flips the server into draining mode: /plan answers 503 so
// load balancers stop routing here, /healthz reports "draining" (also
// 503), and requests already in flight run to completion. Call before
// http.Server.Shutdown for a flap-free rollout. If a plan journal is
// attached it is synced here, so every plan served before the drain
// began is durable even if the process is killed inside the drain
// window.
//
// StartDrain waits (bounded by DrainWait) for in-flight requests to
// reach zero before the sync: a request increments inflight before it
// checks draining, so once the count drains every request that slipped
// past the check has finished — journal append included — and the sync
// really is final. Without the wait, a request admitted just before the
// flag flipped could append its record after the "final" sync, leaving
// a served plan non-durable.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	bound := s.DrainWait
	if bound <= 0 {
		bound = 5 * time.Second
	}
	deadline := time.Now().Add(bound)
	for s.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			s.logf("plannersvc: drain: %d request(s) still in flight after %v; syncing anyway", s.inflight.Load(), bound)
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal != nil {
		if err := s.journal.Sync(); err != nil {
			s.logf("plannersvc: syncing plan journal on drain: %v", err)
		}
	}
}

// SetJournal attaches a durable plan journal: every successfully served
// /plan response is appended as one epoch record (the request's VM
// population plus the produced table and guarantees), giving operators
// a replayable audit of every table this daemon ever handed out.
// Journaling is best-effort for the request path — an append failure is
// counted and logged, not surfaced to the client — and the journal is
// synced when a drain begins. Set before mounting the handler.
func (s *Server) SetJournal(w *journal.Writer) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.journal = w
}

// JournalRecords reports how many plan records this server appended
// (0 with no journal attached).
func (s *Server) JournalRecords() int64 {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return int64(s.jseq)
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetBreaker registers the circuit breaker whose state /healthz should
// expose — typically the breaker the daemon's own upstream client uses,
// surfaced so operators can see a tripped circuit without log-diving.
func (s *Server) SetBreaker(b *Breaker) { s.breaker.Store(b) }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Handler returns the HTTP handler serving POST /plan and GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/plan", s.handlePlan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// healthResponse is the body of GET /healthz: liveness plus the
// counters an operator needs to see whether the central cache is doing
// its job, how loaded the daemon is, and whether its upstream circuit
// breaker (if one is registered) has tripped.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	// CacheEvictions / CacheBytes describe the whole-problem LRU; the
	// slice_* counters are the per-core EDF memo one level below it.
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`
	SliceHits      int64 `json:"slice_hits"`
	SliceMisses    int64 `json:"slice_misses"`
	SliceEvictions int64 `json:"slice_evictions"`
	// JournalRecords / JournalErrors describe the attached plan journal
	// (SetJournal); absent otherwise.
	JournalRecords *int64 `json:"journal_records,omitempty"`
	JournalErrors  *int64 `json:"journal_errors,omitempty"`
	QueueDepth     int64  `json:"queue_depth"`
	BreakerState   string `json:"breaker_state,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	st := s.cache.FullStats()
	resp := healthResponse{
		Status:         "ok",
		UptimeSeconds:  time.Since(s.started).Seconds(),
		CacheHits:      st.Hits,
		CacheMisses:    st.Misses,
		CacheEvictions: st.Evictions,
		CacheBytes:     st.Bytes,
		SliceHits:      st.Slice.Hits,
		SliceMisses:    st.Slice.Misses,
		SliceEvictions: st.Slice.Evictions,
		QueueDepth:     s.inflight.Load(),
	}
	s.jmu.Lock()
	if s.journal != nil {
		records := int64(s.jseq)
		errs := s.journalErrs.Load()
		resp.JournalRecords, resp.JournalErrors = &records, &errs
	}
	s.jmu.Unlock()
	if b := s.breaker.Load(); b != nil {
		resp.BreakerState = b.State()
	}
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		// Draining is a readiness failure, not a liveness one: the body
		// still describes the daemon, but the status code tells probes to
		// pull it out of rotation.
		resp.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.logf("plannersvc: writing /healthz response: %v", err)
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	// Inflight is incremented before the drain check: StartDrain flips
	// draining first and then waits for inflight to reach zero, so a
	// request is either turned away here or visible to the drain's wait
	// — never running invisibly past the "final" journal sync. The
	// reverse order (check, then increment) left a window where a
	// request slipped past the check and appended its journal record
	// after the drain had already synced.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("plannersvc: draining"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = fmt.Errorf("data after the request")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	specs, opts, err := req.toPlannerInput()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The daemon's per-core memo serves whole-problem misses that still
	// share core-level task multisets with earlier requests (excluded
	// from the cache key: it cannot change the produced table).
	opts.Slices = s.cache.SliceCache()
	start := time.Now()
	res, hit, err := s.cache.Plan(specs, opts)
	planTime := time.Since(start)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}

	var buf bytes.Buffer
	if err := res.Table.Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := PlanResponse{
		Stage:         res.Stage.String(),
		TableLengthNS: res.Table.Len,
		TableBytes:    buf.Len(),
		Splits:        len(res.Splits),
		SwitchesSaved: res.SwitchesSaved,
		Table:         base64.StdEncoding.EncodeToString(buf.Bytes()),
		Cached:        hit,
		PlanMS:        float64(planTime.Microseconds()) / 1000,
	}
	for _, g := range res.Guarantees {
		resp.Guarantees = append(resp.Guarantees, GuaranteeInfo{
			VCPU: g.VCPU, ServiceNS: g.Service, WindowNS: g.WindowLen, MaxBlackout: g.MaxBlackout,
		})
	}
	s.journalPlan(req, res)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// The status line is already on the wire, so the client sees a
		// truncated 200 rather than an error; leave a trace server-side
		// instead of failing silently.
		s.logf("plannersvc: writing /plan response: %v", err)
	}
}

// journalPlan appends one epoch record for a served plan: the
// requested VM population as the slot snapshot and the produced table
// in the journal's compact encoding. Failures are counted and logged —
// the client already has its table; losing one audit record must not
// fail the request.
func (s *Server) journalPlan(req PlanRequest, res *planner.Result) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return
	}
	enc, err := res.Table.AppendEncodedCompact(nil)
	if err != nil {
		s.journalErrs.Add(1)
		s.logf("plannersvc: encoding table for plan journal: %v", err)
		return
	}
	rec := &journal.EpochRecord{
		Version:    s.jseq + 1,
		Guarantees: append([]table.Guarantee(nil), res.Guarantees...),
		TableBytes: enc,
	}
	for _, vm := range req.VMs {
		rec.Slots = append(rec.Slots, journal.SlotConfig{
			Name:        vm.Name,
			UtilNum:     vm.UtilNum,
			UtilDen:     vm.UtilDen,
			LatencyGoal: vm.LatencyGoalNS,
			Capped:      vm.Capped,
			Active:      true,
		})
	}
	if err := s.journal.Append(rec); err != nil {
		s.journalErrs.Add(1)
		s.logf("plannersvc: appending plan journal record: %v", err)
		return
	}
	s.jseq++
}

func (r PlanRequest) toPlannerInput() ([]planner.VCPUSpec, planner.Options, error) {
	if len(r.VMs) == 0 {
		return nil, planner.Options{}, fmt.Errorf("plannersvc: no VMs in request")
	}
	specs := make([]planner.VCPUSpec, len(r.VMs))
	for i, vm := range r.VMs {
		specs[i] = planner.VCPUSpec{
			ID:          vm.ID,
			Name:        vm.Name,
			Util:        planner.Util{Num: vm.UtilNum, Den: vm.UtilDen},
			LatencyGoal: vm.LatencyGoalNS,
			Capped:      vm.Capped,
		}
	}
	opts := planner.Options{
		Cores:       r.Cores,
		TableLength: r.TableLengthNS,
		Peephole:    r.Peephole,
	}
	return specs, opts, nil
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
