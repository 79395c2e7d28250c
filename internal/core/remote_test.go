package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tableau/internal/plannersvc"
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
	if !bytes.Equal(enc, ctrl.Epoch().Bytes) {
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
