package cluster

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/cluster/wire"
)

// WireStats is a snapshot of one endpoint's framing counters: frames
// and bytes in each direction, decode failures (corrupt, truncated,
// oversized or non-binary frames — each one also cost the connection it
// arrived on), and how many connections were framed: accepted ones at
// the scheduler, dialed ones (reconnections included) at a worker or
// client.
type WireStats struct {
	FramesIn     int64
	FramesOut    int64
	BytesIn      int64
	BytesOut     int64
	DecodeErrors int64
	Conns        int64
}

// String renders a one-line summary for stats dumps.
func (ws WireStats) String() string {
	return fmt.Sprintf("wire: frames_in=%d frames_out=%d bytes_in=%d bytes_out=%d decode_errors=%d conns=%d",
		ws.FramesIn, ws.FramesOut, ws.BytesIn, ws.BytesOut, ws.DecodeErrors, ws.Conns)
}

// wireCounters is the shared atomic backing for WireStats; one lives on
// the scheduler (aggregated across every connection) and one on each
// worker and client.
type wireCounters struct {
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
	decodeErrors        atomic.Int64
	conns               atomic.Int64
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesIn:     c.framesIn.Load(),
		FramesOut:    c.framesOut.Load(),
		BytesIn:      c.bytesIn.Load(),
		BytesOut:     c.bytesOut.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		Conns:        c.conns.Load(),
	}
}

// codec frames protocol messages over one connection in the binary wire
// format (internal/cluster/wire).  Read and write state are independent,
// so one goroutine may read while another writes (the worker's
// heartbeats race its results); two concurrent writers or readers must
// be serialized by the caller, which matches the discipline net.Conn
// already demands.  Retained fields are copied out of the decoder's
// buffer at this boundary, which is where the per-message allocation
// cost of the whole path lives (the wire codec beneath it is
// allocation-free).
type codec struct {
	enc *wire.Encoder
	dec *wire.Decoder
	c   *wireCounters
	wm  wire.Message // write-side scratch
	rm  wire.Message // read-side scratch
}

// newCodec builds the codec for an established stream: r is the
// (possibly buffered) read side, w the raw write side.
func newCodec(r io.Reader, w io.Writer, c *wireCounters) *codec {
	return &codec{enc: wire.NewEncoder(w), dec: wire.NewDecoder(r), c: c}
}

// newConnCodec frames a whole connection: it counts the connection,
// tallies bytes as they arrive (ahead of any buffering) and returns the
// buffered reader every read goes through.  The scheduler hands that
// reader — and any bytes it buffered past a mux hello — to the session
// layer, so nothing on the stream is lost in the takeover.
func newConnCodec(conn io.ReadWriter, c *wireCounters) (*codec, *bufio.Reader) {
	br := bufio.NewReaderSize(countingReader{conn, &c.bytesIn}, 16<<10)
	c.conns.Add(1)
	return newCodec(br, conn, c), br
}

func (cd *codec) write(m *message) error {
	toWire(m, &cd.wm)
	n, err := cd.enc.Encode(&cd.wm)
	cd.c.bytesOut.Add(int64(n))
	if err != nil {
		return err
	}
	cd.c.framesOut.Add(1)
	return nil
}

// read decodes the next frame.  A frame that is not well-formed binary
// — bad magic (such as a peer speaking some other framing), unknown
// version or type, oversized or truncated — counts as a decode error;
// the caller drops the connection.
func (cd *codec) read() (*message, error) {
	if err := cd.dec.Decode(&cd.rm); err != nil {
		if wire.IsDecodeError(err) {
			cd.c.decodeErrors.Add(1)
		}
		return nil, err
	}
	cd.c.framesIn.Add(1)
	return fromWire(&cd.rm), nil
}

// toWire fills wm from m, reusing wm's field capacity where possible.
func toWire(m *message, wm *wire.Message) {
	wm.Type = m.Type
	wm.Flags = m.Flags
	wm.TaskID = append(wm.TaskID[:0], m.TaskID...)
	wm.Name = append(wm.Name[:0], m.Name...)
	wm.Err = append(wm.Err[:0], m.Err...)
	wm.Payload = append(wm.Payload[:0], m.Payload...)
	wm.Epoch, wm.Pending = 0, 0
	wm.Leases = wm.Leases[:0]
	if m.Snap != nil {
		wm.Epoch = m.Snap.Epoch
		wm.Pending = uint64(m.Snap.Pending)
		for _, id := range m.Snap.Leases {
			wm.Leases = append(wm.Leases, []byte(id))
		}
	}
}

// fromWire converts a decoded frame into a fresh message, copying every
// retained field out of the decoder's reused buffer.
func fromWire(wm *wire.Message) *message {
	m := &message{
		Type:   wm.Type,
		Flags:  wm.Flags,
		TaskID: string(wm.TaskID),
		Name:   string(wm.Name),
		Err:    string(wm.Err),
	}
	if len(wm.Payload) > 0 {
		m.Payload = append([]byte(nil), wm.Payload...)
	}
	if wm.Type == wire.TypeSnapshot {
		snap := &snapshotData{Epoch: wm.Epoch, Pending: int(wm.Pending)}
		for _, id := range wm.Leases {
			snap.Leases = append(snap.Leases, string(id))
		}
		m.Snap = snap
	}
	return m
}

// countingReader tallies bytes as they arrive off the connection, ahead
// of any buffering, so byte counters reflect the stream itself.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}
