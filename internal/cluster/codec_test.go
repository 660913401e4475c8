package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSnapshotCatchUpMidCampaign is the late-joiner acceptance test: a
// worker registering mid-campaign receives one compact snapshot frame —
// campaign epoch, queue depth, outstanding leases — instead of any
// history replay, and immediately serves the backlog.
func TestSnapshotCatchUpMidCampaign(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	// The first worker takes one task and holds it, pinning one lease
	// outstanding and leaving the rest of the campaign queued.
	block := make(chan struct{})
	defer close(block)
	var first sync.Once
	holdFirst := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		held := false
		first.Do(func() { held = true })
		if held {
			<-block
		}
		return payload, nil
	}
	holder, err := NewWorker(sched.Addr(), "holder", holdFirst)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { _ = holder.Run(ctx) }()

	// A worker joining an idle scheduler still gets a snapshot — an empty
	// one.
	if snap, ok := holder.Snapshot(); !ok || snap.Epoch != 0 || len(snap.Leases) != 0 {
		t.Errorf("idle-join snapshot = %+v, %v; want empty snapshot", snap, ok)
	}

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := client.Submit(ctx, json.RawMessage(fmt.Sprintf(`{"task":%d}`, i)))
			results <- err
		}(i)
	}

	// Wait until the campaign is in the exact mid-flight shape: three
	// submissions on the books, one leased to the holder, two queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sched.Stats()
		inflight := 0
		for _, ws := range sched.WorkerStats() {
			inflight += ws.InFlight
		}
		if st.Submitted == 3 && inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never reached mid-flight shape: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	late, err := NewWorker(sched.Addr(), "late", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	snap, ok := late.Snapshot()
	if !ok {
		t.Fatal("late joiner received no snapshot")
	}
	if snap.Epoch != 3 {
		t.Errorf("snapshot epoch = %d, want 3 (tasks submitted before join)", snap.Epoch)
	}
	if snap.Pending != 2 {
		t.Errorf("snapshot pending = %d, want 2 (queued tasks at join)", snap.Pending)
	}
	if len(snap.Leases) != 1 {
		t.Errorf("snapshot leases = %v, want exactly the holder's one", snap.Leases)
	}

	go func() { _ = late.Run(ctx) }()

	// The late joiner drains the two queued tasks; releasing the holder
	// completes the third.
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("task %d failed after late join: %v", i, err)
		}
	}
	// Catch-up cost is O(1) frames, not O(history): the late worker has
	// received exactly its snapshot plus one assign per task it served.
	if lw := late.Wire(); lw.FramesIn > 3 {
		t.Errorf("late joiner received %d frames for 2 tasks; want <= 3 (snapshot + assigns, no replay)", lw.FramesIn)
	}
	block <- struct{}{}
	if err := <-results; err != nil {
		t.Fatalf("held task failed: %v", err)
	}
}
