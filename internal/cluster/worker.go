package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster/wire"
)

// Handler executes one task payload and returns a result payload.  In the
// paper's deployment this is the multi-step DeePMD training workflow of
// §2.2.4 (decode genome → write input.json in a UUID directory → train →
// read lcurve.out).
type Handler func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

// Worker connects to a scheduler, executes assigned tasks, and returns
// results.  There is intentionally no supervision/restart of the process
// itself: the paper found it best to "disable nannies, let workers fail,
// and have the scheduler reassign tasks" (§2.2.5).  What the worker does
// do is survive the two failure modes that are not its own death: a
// handler that hangs (the task is timed out asynchronously and abandoned,
// the worker stays live) and a scheduler connection loss (the worker
// re-dials with exponential backoff and jitter).
type Worker struct {
	// Name identifies the worker in scheduler logs.
	Name string
	// TaskTimeout, if positive, bounds each task's execution — the
	// analogue of the paper's two-hour training limit.  The limit is
	// enforced asynchronously: a handler that ignores its context is
	// abandoned (its goroutine leaks until it returns on its own) and a
	// timeout failure result is sent, so a wedged handler cannot wedge
	// the worker.
	TaskTimeout time.Duration
	// Heartbeat, if positive, is the interval at which the worker pings
	// the scheduler while executing a task, renewing the task's lease.
	// Set it well below the scheduler's TaskTimeout so a slow-but-alive
	// training is not reassigned.
	Heartbeat time.Duration
	// ReconnectInitial and ReconnectMax shape the re-dial backoff after a
	// scheduler connection loss (defaults 50ms and 5s).
	ReconnectInitial time.Duration
	ReconnectMax     time.Duration
	// MaxReconnects, if positive, bounds consecutive failed re-dial
	// attempts before Run gives up; 0 retries until the context is
	// cancelled or Close is called.
	MaxReconnects int
	// Handler executes tasks.
	Handler Handler
	// Logf, if non-nil, receives diagnostic output.
	Logf func(format string, args ...interface{})

	addr   string
	dialer Dialer
	wire   wireCounters

	mu      sync.Mutex // guards conn, cd, snap, closed
	conn    net.Conn
	cd      *codec
	snap    *snapshotData
	closed  bool
	writeMu sync.Mutex // serializes frames (results vs heartbeats)
}

// NewWorker dials the scheduler over one TCP connection and registers.
func NewWorker(addr, name string, handler Handler) (*Worker, error) {
	return newWorker(addr, name, handler, tcpDialer(addr))
}

// NewWorkerMux dials the scheduler through a shared MuxDialer: the
// worker's "connection" is one logical stream multiplexed with its
// siblings over the dialer's TCP pool.  Reconnection works exactly as
// over TCP — each re-dial just opens a fresh stream, re-establishing a
// dead physical session lazily if its slot needs one.
func NewWorkerMux(d *MuxDialer, name string, handler Handler) (*Worker, error) {
	return newWorker(d.Addr, name, handler, d)
}

func newWorker(addr, name string, handler Handler, dialer Dialer) (*Worker, error) {
	if handler == nil {
		return nil, fmt.Errorf("cluster: worker needs a handler")
	}
	w := &Worker{Name: name, Handler: handler, addr: addr, dialer: dialer}
	conn, cd, snap, err := w.dialAndRegister()
	if err != nil {
		return nil, err
	}
	w.conn, w.cd, w.snap = conn, cd, snap
	return w, nil
}

// dialAndRegister dials, registers with wire.FlagWantSnapshot, and waits for
// the scheduler's snapshot reply.  Registering mid-campaign therefore
// costs one compact frame — where the campaign stands and which leases
// are outstanding — never a replay of history.
func (w *Worker) dialAndRegister() (net.Conn, *codec, *snapshotData, error) {
	conn, err := w.dialer.Dial()
	if err != nil {
		return nil, nil, nil, err
	}
	cd, _ := newConnCodec(conn, &w.wire)
	if err := cd.write(&message{Type: wire.TypeRegister, Name: w.Name, Flags: wire.FlagWantSnapshot}); err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the register error is returned
		conn.Close()
		return nil, nil, nil, err
	}
	first, err := cd.read()
	if err != nil {
		//lint:ignore errdiscard best-effort close of a half-registered conn; the read error is returned
		conn.Close()
		return nil, nil, nil, fmt.Errorf("cluster: reading register snapshot: %w", err)
	}
	if first.Type != wire.TypeSnapshot {
		//lint:ignore errdiscard best-effort close of a conn that broke protocol; the type error is returned
		conn.Close()
		return nil, nil, nil, fmt.Errorf("cluster: expected snapshot after register, got %q", first.Type)
	}
	snap := first.Snap
	if snap == nil {
		snap = &snapshotData{}
	}
	return conn, cd, snap, nil
}

// Snapshot is the catch-up state a worker received when it registered:
// the campaign epoch (tasks submitted before it joined), the queue depth
// at join time, and the leases that were outstanding.
type Snapshot struct {
	Epoch   uint64
	Pending int
	Leases  []string
}

// Snapshot returns the catch-up state from the most recent successful
// registration, and whether one has been received.
func (w *Worker) Snapshot() (Snapshot, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snap == nil {
		return Snapshot{}, false
	}
	return Snapshot{
		Epoch:   w.snap.Epoch,
		Pending: w.snap.Pending,
		Leases:  append([]string(nil), w.snap.Leases...),
	}, true
}

// Wire returns a snapshot of the worker's transport counters across all
// connections it has dialed.
func (w *Worker) Wire() WireStats { return w.wire.snapshot() }

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) current() (net.Conn, *codec) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn, w.cd
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// Run processes tasks until the context is cancelled or Close is called.
// A scheduler connection loss is not fatal: Run re-dials with exponential
// backoff + jitter and resumes pulling tasks (the in-flight task, if any,
// is the scheduler's to reassign).  It returns nil on clean shutdown, or
// the terminating error once MaxReconnects consecutive re-dials fail.
func (w *Worker) Run(ctx context.Context) error {
	unwatch := context.AfterFunc(ctx, func() { w.closeConn() })
	defer unwatch()

	bo := newBackoff(w.ReconnectInitial, w.ReconnectMax)
	for {
		conn, cd := w.current()
		if conn == nil {
			var err error
			if conn, cd, err = w.reconnect(ctx, bo); err != nil {
				return err
			}
			if conn == nil { // cancelled or closed
				return nil
			}
		}
		err := w.serve(ctx, cd)
		if ctx.Err() != nil || w.isClosed() {
			return nil
		}
		w.logf("cluster: worker %q lost scheduler connection: %v; reconnecting", w.Name, err)
		w.closeConn()
	}
}

// reconnect re-dials the scheduler with backoff until it succeeds, the
// context is cancelled, Close is called, or MaxReconnects consecutive
// attempts fail.
func (w *Worker) reconnect(ctx context.Context, bo *backoff) (net.Conn, *codec, error) {
	attempts := 0
	for {
		if ctx.Err() != nil || w.isClosed() {
			return nil, nil, nil
		}
		conn, cd, snap, err := w.dialAndRegister()
		if err == nil {
			w.mu.Lock()
			if w.closed {
				w.mu.Unlock()
				//lint:ignore errdiscard best-effort: the worker was closed while dialing; the fresh conn is discarded unused
				conn.Close()
				return nil, nil, nil
			}
			w.conn, w.cd, w.snap = conn, cd, snap
			w.mu.Unlock()
			if ctx.Err() != nil {
				// The cancellation watcher may have fired before w.conn was
				// set; make sure a late dial never leaves a live socket.
				w.closeConn()
				return nil, nil, nil
			}
			bo.reset()
			w.logf("cluster: worker %q reconnected to %s (epoch %d, %d leases outstanding)", w.Name, w.addr, snap.Epoch, len(snap.Leases))
			return conn, cd, nil
		}
		attempts++
		if w.MaxReconnects > 0 && attempts >= w.MaxReconnects {
			return nil, nil, fmt.Errorf("cluster: worker %q gave up after %d reconnect attempts: %w", w.Name, attempts, err)
		}
		delay := bo.next()
		w.logf("cluster: worker %q reconnect attempt %d failed (%v); retrying in %v", w.Name, attempts, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, nil, nil
		}
	}
}

// serve pulls assignments from one connection until it fails.
func (w *Worker) serve(ctx context.Context, cd *codec) error {
	for {
		m, err := cd.read()
		if err != nil {
			return err
		}
		if m.Type == wire.TypeSnapshot {
			w.mu.Lock()
			w.snap = m.Snap
			w.mu.Unlock()
			continue
		}
		if m.Type != wire.TypeAssign {
			w.logf("cluster: worker %q got unexpected message %q; ignoring", w.Name, m.Type)
			continue
		}
		result := w.execute(ctx, cd, m)
		if result == nil {
			// Parent context cancelled mid-task: propagate the shutdown
			// instead of fabricating a failure result.
			return context.Canceled
		}
		if err := w.write(cd, result); err != nil {
			return err
		}
	}
}

// write sends one frame, serialized against concurrent heartbeats.
func (w *Worker) write(cd *codec, m *message) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return cd.write(m)
}

// execute runs one task with asynchronous timeout enforcement, heartbeats
// and panic containment.  It returns nil when the parent context was
// cancelled (worker shutting down), so that Ctrl-C is never misreported
// as a task timeout.
func (w *Worker) execute(ctx context.Context, cd *codec, m *message) *message {
	taskCtx := ctx
	var cancel context.CancelFunc
	if w.TaskTimeout > 0 {
		taskCtx, cancel = context.WithTimeout(ctx, w.TaskTimeout)
		defer cancel()
	}

	if w.Heartbeat > 0 {
		hbDone := make(chan struct{})
		defer close(hbDone)
		go func() {
			ticker := time.NewTicker(w.Heartbeat)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					// A failed heartbeat is not fatal here; the serve loop
					// will see the connection error on its next read/write.
					_ = w.write(cd, &message{Type: wire.TypeHeartbeat, TaskID: m.TaskID})
				case <-hbDone:
					return
				}
			}
		}()
	}

	type handlerOut struct {
		payload json.RawMessage
		err     error
	}
	done := make(chan handlerOut, 1)
	go func() {
		p, err := safeHandle(taskCtx, w.Handler, m.Payload)
		done <- handlerOut{p, err}
	}()

	var out handlerOut
	select {
	case out = <-done:
	case <-taskCtx.Done():
		if ctx.Err() != nil {
			return nil // shutdown, not a task failure
		}
		// The handler ignored its context and is still running: abandon
		// it (the goroutine leaks until the handler returns on its own)
		// and report the timeout so the worker stays live for the next
		// task — a hung handler must not wedge the worker.
		w.logf("cluster: worker %q abandoning task %s after %v (handler ignored context)", w.Name, m.TaskID, w.TaskTimeout)
		return &message{Type: wire.TypeResult, TaskID: m.TaskID,
			Err: fmt.Sprintf("cluster: task timed out after %v", w.TaskTimeout)}
	}

	if out.err == nil && taskCtx.Err() != nil {
		// The handler returned success but its deadline had passed;
		// classify by cause rather than blaming every cancellation on
		// the timeout (the old bug recorded Ctrl-C as "task timed out").
		if ctx.Err() != nil {
			return nil
		}
		out.err = fmt.Errorf("cluster: task timed out: %v", taskCtx.Err())
	}
	if out.err != nil && errors.Is(out.err, context.Canceled) && ctx.Err() != nil {
		return nil
	}

	res := &message{Type: wire.TypeResult, TaskID: m.TaskID}
	if out.err != nil {
		res.Err = out.err.Error()
	} else {
		res.Payload = out.payload
	}
	return res
}

func safeHandle(ctx context.Context, h Handler, payload json.RawMessage) (out json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("cluster: task panic: %v", r)
		}
	}()
	return h(ctx, payload)
}

// closeConn closes the current connection without marking the worker
// closed, so Run can re-dial.
func (w *Worker) closeConn() {
	w.mu.Lock()
	conn := w.conn
	w.conn, w.cd = nil, nil
	w.mu.Unlock()
	if conn != nil {
		//lint:ignore errdiscard force-drop by design: closing under the reader unblocks it; there is no recovery path for the error
		conn.Close()
	}
}

// Close terminates the worker permanently: the connection is closed and
// Run stops reconnecting.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	conn := w.conn
	w.conn, w.cd = nil, nil
	w.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
