package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
)

// BenchmarkTaskRoundTrip measures one submit→assign→result cycle through
// the scheduler over loopback TCP.
func BenchmarkTaskRoundTrip(b *testing.B) {
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	payload := json.RawMessage(`{"genome":[1,2,3,4,5,6,7]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lc.Client.Submit(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputByWorkers measures the sustained task rate as the
// worker pool grows, with concurrent submission.
func BenchmarkThroughputByWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			lc, err := NewLocalCluster(workers, echoHandler, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			payload := json.RawMessage(`{"x":1}`)
			b.ResetTimer()
			var wg sync.WaitGroup
			sem := make(chan struct{}, 2*workers)
			for i := 0; i < b.N; i++ {
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if _, err := lc.Client.Submit(context.Background(), payload); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkMessageFraming(b *testing.B) {
	m := &message{Type: wire.TypeSubmit, TaskID: "0123456789abcdef", Payload: json.RawMessage(`{"genome":[0.1,0.2,0.3,0.4,0.5,0.6,0.7]}`)}
	cd := newCodec(nil, io.Discard, &wireCounters{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cd.write(m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPayload is a campaign-realistic task body: a 512-gene genome,
// the size class a wide hyperparameter search with per-layer knobs and
// an inlined training config ships per evaluation (~6 KiB of JSON).
// The codec copies it as one length-prefixed region, so framing cost
// grows with its size.
func benchPayload() json.RawMessage {
	var sb bytes.Buffer
	sb.WriteString(`{"genome":[`)
	for i := 0; i < 512; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%.6f", float64(i)*0.125-4)
	}
	sb.WriteString(`]}`)
	return sb.Bytes()
}

// BenchmarkCodecRoundTrip pins the per-frame cost of the codec in
// isolation: one submit message encoded and decoded through an in-memory
// stream, no scheduler and no sockets.
func BenchmarkCodecRoundTrip(b *testing.B) {
	m := &message{Type: wire.TypeSubmit, TaskID: "0123456789abcdef", Payload: benchPayload()}
	var buf bytes.Buffer
	cd := newCodec(&buf, &buf, &wireCounters{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cd.write(m); err != nil {
			b.Fatal(err)
		}
		if _, err := cd.read(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet measures sustained submit→assign→result throughput with a
// pool of echo workers.  The whole fleet — every worker plus the client
// — either multiplexes over a small shared TCP pool (muxed, 2 physical
// connections) or keeps one TCP connection per peer, optionally through
// the chaos proxy's extra hop.  ns/op is the wall cost of one task at
// saturation.  The coalescing budget stays 0 — on the single-core bench
// box, batching purely opportunistically (frames staged while a flush
// is in flight leave together) wins over paying the timer latency.
func benchFleet(b *testing.B, workers int, muxed, viaProxy bool) {
	const muxConns = 2
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	addr := sched.Addr()
	if viaProxy {
		addr = newChaosProxy(b, addr).Addr()
	}

	var dialer *MuxDialer
	if muxed {
		dialer = &MuxDialer{Addr: addr, Conns: muxConns}
		defer dialer.Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < workers; i++ {
		var w *Worker
		if muxed {
			w, err = NewWorkerMux(dialer, fmt.Sprintf("w%d", i), echoHandler)
		} else {
			w, err = NewWorker(addr, fmt.Sprintf("w%d", i), echoHandler)
		}
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	for sched.Stats().Workers < int64(workers) {
		time.Sleep(time.Millisecond)
	}
	var client *Client
	if muxed {
		client, err = NewClientMux(dialer)
	} else {
		client, err = NewClient(addr)
	}
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	payload := benchPayload()
	inflight := 2 * workers
	if inflight > 256 {
		inflight = 256
	}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := client.Submit(ctx, payload); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkSchedulerThroughput is the headline grid: task throughput by
// worker-pool size over plain loopback, one connection per peer.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, workers := range []int{1, 10, 100, 500} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchFleet(b, workers, false, false)
		})
	}
}

// BenchmarkSchedulerThroughputScaleOut is the fleet-size grid:
// throughput by worker count, multiplexed over 2 shared TCP connections
// vs one connection per peer.  bench.sh divides each point by the
// BENCH_7 baseline into sched_throughput_speedup_vs_bench7.  The
// workers=1000 points exist to demonstrate the fleet completes at a
// size the per-connection path only barely sustains.
func BenchmarkSchedulerThroughputScaleOut(b *testing.B) {
	for _, workers := range []int{1, 10, 100, 500, 1000} {
		for _, mode := range []string{"mux", "perconn"} {
			b.Run(fmt.Sprintf("workers=%d/mode=%s", workers, mode), func(b *testing.B) {
				benchFleet(b, workers, mode == "mux", false)
			})
		}
	}
}

// BenchmarkSchedulerThroughputChaos repeats the mid-size grid points
// through the chaos proxy (no faults armed), paying one extra TCP hop
// per direction — closer to a real network path than bare loopback.
func BenchmarkSchedulerThroughputChaos(b *testing.B) {
	for _, workers := range []int{10, 100} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchFleet(b, workers, false, true)
		})
	}
}
