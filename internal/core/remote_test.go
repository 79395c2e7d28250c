package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/plannersvc"
	"tableau/internal/table"
)

// TestControllerRemotePlanning runs a churn transition through the full
// offloaded-planner path: the Controller's PlanVia hook is the
// plannersvc client, so the arrival's table is planned by an actual
// HTTP round-trip to a daemon and handed back in the binary wire
// format.
func TestControllerRemotePlanning(t *testing.T) {
	_, d, ctrl, ids, _ := churnRig(t, 2, 2, 1)

	svc := plannersvc.NewServer(16)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &plannersvc.Client{BaseURL: ts.URL, MaxAttempts: 2}
	ctrl.PlanVia = client.PlanFunc()

	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version == 0 || tr.RolledBack {
		t.Fatalf("remote-planned transition did not commit: %+v", tr)
	}
	if _, misses := svc.CacheStats(); misses == 0 {
		t.Fatal("daemon never planned — PlanVia did not reach the service")
	}
	// The remotely planned epoch is what the dispatcher will enact
	// (epoch bytes are the compact encoding, so compare in that form).
	enc, err := d.Staged().AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, epochBytes(t, ctrl.Epoch())) {
		t.Fatal("staged table differs from the controller's epoch")
	}

	// /healthz surfaces the daemon's cache counters.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status         string `json:"status"`
		CacheHits      int64  `json:"cache_hits"`
		CacheMisses    int64  `json:"cache_misses"`
		CacheEvictions int64  `json:"cache_evictions"`
		CacheBytes     int64  `json:"cache_bytes"`
		SliceHits      int64  `json:"slice_hits"`
		SliceMisses    int64  `json:"slice_misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status = %q", h.Status)
	}
	if h.CacheMisses == 0 {
		t.Error("healthz reports no cache misses after a planned request")
	}
	if h.CacheBytes == 0 {
		t.Error("healthz reports an empty cache after a planned request")
	}
	if h.SliceMisses == 0 {
		t.Error("healthz reports no slice-cache activity after a planned request")
	}
}

// TestControllerRemoteOutageFallsBackLocally pins the availability
// story: with the daemon unreachable the PlanWithFallback path plans
// on-host, and the churn transition still commits — remote planning is
// a convenience, never a hard dependency of admission.
func TestControllerRemoteOutageFallsBackLocally(t *testing.T) {
	_, _, ctrl, ids, _ := churnRig(t, 2, 2, 1)

	// A daemon that was up once and is now gone: the URL points at a
	// closed listener, so every attempt fails at the transport layer.
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	client := &plannersvc.Client{
		BaseURL:        url,
		MaxAttempts:    1,
		AttemptTimeout: 200 * time.Millisecond,
		Breaker:        &plannersvc.Breaker{Threshold: 1, Cooldown: time.Hour},
	}
	ctrl.PlanVia = client.PlanFunc()

	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	tr, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version == 0 || tr.RolledBack {
		t.Fatalf("fallback transition did not commit: %+v", tr)
	}
	if tr.PlannerCalls != 1 {
		t.Fatalf("planner calls = %d, want 1", tr.PlannerCalls)
	}
	// The breaker is now open; a second transition must still commit
	// without waiting out remote attempts.
	ctrl.Submit(Op{Kind: OpDeactivate, Slot: ids[2]})
	tr2, err := ctrl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Version == 0 || tr2.RolledBack {
		t.Fatalf("second fallback transition did not commit: %+v", tr2)
	}
	if tr2.Version <= tr.Version {
		t.Fatalf("epoch versions not monotonic: %d then %d", tr.Version, tr2.Version)
	}
}

// TestRemotePlanWithAnIDGapEqualsTheLocalPlan: the wire carries the slot
// ids, so a population with an inactive slot in the middle — a gap in
// the ids — comes back from a plannersvc round trip as the table and
// guarantees the in-process planner makes of it.
func TestRemotePlanWithAnIDGapEqualsTheLocalPlan(t *testing.T) {
	s := NewSystem(2, planner.Options{}, dispatch.Options{})
	for i := 0; i < 5; i++ {
		if _, err := s.AddVM(eighthVM(fmt.Sprintf("vm%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetActive(1, false); err != nil {
		t.Fatal(err)
	}
	svc := plannersvc.NewServer(16)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := &plannersvc.Client{BaseURL: ts.URL, MaxAttempts: 2}

	local, lres, err := s.PlanUsing(nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, rres, err := s.PlanUsing(client.PlanFunc())
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := svc.CacheStats(); misses == 0 {
		t.Fatal("the daemon never planned")
	}
	remote.Generation = local.Generation
	want, err := local.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.AppendEncodedCompact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the remote plan's table differs from the local plan's")
	}
	if !slices.Equal(rres.Guarantees, lres.Guarantees) {
		t.Errorf("remote guarantees %v, local %v", rres.Guarantees, lres.Guarantees)
	}
	for _, g := range lres.Guarantees {
		if g.VCPU == 1 {
			t.Error("the inactive slot holds a guarantee")
		}
	}
}

// TestBackendTableMustNameActiveSlots: a planning backend's table is
// checked before it is placed — one that gives time to a slot with no
// VM, or names a core past the online ones, commits nothing: the
// arrival is shed and the epoch stands.
func TestBackendTableMustNameActiveSlots(t *testing.T) {
	for name, spoil := range map[string]func(*table.Table){
		"inactive slot": func(tbl *table.Table) { tbl.Cores[0].Allocs[0].VCPU = 3 },
		"unknown core":  func(tbl *table.Table) { tbl.Cores[0].Core = 7 },
	} {
		t.Run(name, func(t *testing.T) {
			s, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
			before := ctrl.Epoch()
			ctrl.PlanVia = func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
				res, err := planner.Plan(specs, opts)
				if err == nil {
					spoil(res.Table)
				}
				return res, err
			}
			ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
			if tr, _ := ctrl.Flush(); tr.Version != 0 || len(tr.Rejected) != 1 {
				t.Fatalf("a spoiled backend table committed: %+v", tr)
			}
			if ctrl.Epoch().Version != before.Version || s.Active(ids[2]) {
				t.Error("the rolled-back batch left the host changed")
			}
		})
	}
}
