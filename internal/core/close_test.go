package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCloseLeaksNoGoroutines: a controller owns no background work, so
// repeated lifecycles must leave the goroutine count where it was.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	count := func() int {
		runtime.GC()
		return runtime.NumGoroutine()
	}
	before := count()
	for i := 0; i < 20; i++ {
		_, _, ctrl, ids, _ := churnRig(t, 2, 2, 2)
		ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
		if _, err := ctrl.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give the runtime a moment to retire exited Gs.
	deadline := time.Now().Add(2 * time.Second)
	for count() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := count(); after > before {
		t.Fatalf("goroutines grew %d -> %d after 20 close cycles", before, after)
	}
}

// TestCloseWithoutJournal: Close on a plain controller is a cheap no-op
// and flushing afterwards fails cleanly.
func TestCloseWithoutJournal(t *testing.T) {
	_, _, ctrl, ids, _ := churnRig(t, 2, 2, 1)
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
	if _, err := ctrl.Flush(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("flush after close: %v, want a closed error", err)
	}
	// Close is idempotent.
	if err := ctrl.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestControllerCloseFlushSubmitRace hammers one controller with
// concurrent Submit/Flush traffic racing a Close — the -race stress for
// the closed flag. Whatever the interleaving, Close must win cleanly:
// after it returns no flush is accepted and no epoch is installed.
func TestControllerCloseFlushSubmitRace(t *testing.T) {
	for round := 0; round < 25; round++ {
		_, _, ctrl, ids, _ := churnRig(t, 2, 2, 4)

		const goroutines = 6
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					switch g % 3 {
					case 0:
						ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2+(g+i)%4]})
						_, _ = ctrl.Flush()
					case 1:
						ctrl.Submit(Op{Kind: OpDeactivate, Slot: ids[2+(g+i)%4]})
						_, _ = ctrl.Flush()
					case 2:
						if i == 5 {
							_ = ctrl.Close()
						} else {
							_, _ = ctrl.Flush()
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if err := ctrl.Close(); err != nil {
			t.Fatal(err)
		}
		version := ctrl.Epoch().Version
		ctrl.Submit(Op{Kind: OpActivate, Slot: ids[2]})
		if _, err := ctrl.Flush(); err == nil {
			t.Fatal("Flush accepted after Close")
		}
		if got := ctrl.Epoch().Version; got != version {
			t.Fatalf("epoch moved %d -> %d after Close", version, got)
		}
	}
}
