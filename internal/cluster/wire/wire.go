// Package wire is the framing for the cluster plane: a hand-rolled
// length-prefixed binary codec for every message (submit → assign →
// result → heartbeat, and the mux session frames) with fixed-width
// headers and varint-delimited fields.  The paper's deployment moved
// hundreds of fitness tasks per generation between the Dask client,
// scheduler and workers (§2.2.5); at that rate a reflection-driven
// envelope (marshal/unmarshal plus an allocation per message) would
// dominate the scheduler's CPU, so the codec here is built around two
// properties:
//
//   - Zero-copy decode: Decode parses a frame into a Message whose byte
//     fields alias the Decoder's internal buffer.  Nothing is copied and
//     nothing is allocated in steady state; callers that retain a field
//     past the next Decode must copy it themselves.
//   - Zero-allocation encode: Encode appends the frame into a reusable
//     buffer and issues exactly one Write, so a megabyte-per-second
//     heartbeat stream costs no garbage and no extra syscalls.
//
// Frame layout (all multi-byte integers big-endian):
//
//	offset size field
//	0      2    magic     0xD5A7
//	2      1    version   format version (currently 1)
//	3      1    type      message type (Register … Snapshot)
//	4      1    flags     per-type bits (e.g. FlagWantSnapshot)
//	5      1    id len    task-id length in bytes (0–255)
//	6      4    body len  length of the body after the task id
//	10     …    task id   raw task-id bytes
//	…      …    body      type-specific fields (see below)
//
// Body encodings, all uvarint-delimited:
//
//	Register:  len(name) name
//	Submit:    payload (the remaining body bytes, verbatim)
//	Assign:    payload
//	Result:    len(err) err payload
//	Heartbeat: (empty)
//	Snapshot:  epoch pending nleases { len(id) id }*
//	MuxOpen:   (empty; stream id in the task-id field)
//	MuxData:   chunk (the remaining body bytes, verbatim)
//	MuxClose:  (empty)
//	MuxWindow: window (bytes of send credit granted)
//
// A stream that does not open with the magic — a peer speaking some
// other framing — fails its first Decode with ErrBadMagic.
package wire

import (
	"errors"
	"fmt"
)

// Magic identifies a frame.
const Magic uint16 = 0xD5A7

// MagicByte0 is the first on-the-wire byte of every frame.
const MagicByte0 byte = byte(Magic >> 8)

// Version is the wire-format version encoded in every frame.  A
// scheduler that sees another version fails the decode and drops the
// connection.
const Version byte = 1

// HeaderSize is the fixed frame-header length in bytes.
const HeaderSize = 10

// MaxFrame bounds the body of one frame, so a corrupt or hostile length
// prefix cannot force a huge allocation.
const MaxFrame = 64 << 20

// MaxTaskID bounds the task-id field (it has a 1-byte length).
const MaxTaskID = 255

// Type enumerates the protocol messages.
type Type byte

const (
	// TypeRegister is worker → scheduler: join the pool.
	TypeRegister Type = 1
	// TypeSubmit is client → scheduler: run this task.
	TypeSubmit Type = 2
	// TypeAssign is scheduler → worker: lease of one task.
	TypeAssign Type = 3
	// TypeResult is worker → scheduler → client: task outcome.
	TypeResult Type = 4
	// TypeHeartbeat is worker → scheduler: renew the task's lease.
	TypeHeartbeat Type = 5
	// TypeSnapshot is scheduler → worker: compact catch-up state sent at
	// register time (campaign epoch, queue depth, outstanding leases) so
	// a late-joining worker learns where the campaign stands without any
	// history replay.
	TypeSnapshot Type = 6
	// TypeMuxOpen opens one logical stream inside a multiplexed session.
	// The stream id travels in the task-id header field as 4 big-endian
	// bytes (see package mux).
	TypeMuxOpen Type = 7
	// TypeMuxData carries one chunk of stream bytes; the body is the
	// chunk, verbatim.
	TypeMuxData Type = 8
	// TypeMuxClose tears down one logical stream in both directions.
	TypeMuxClose Type = 9
	// TypeMuxWindow grants the peer Window more bytes of send credit on
	// one stream (flow control; see package mux).
	TypeMuxWindow Type = 10

	typeMax = TypeMuxWindow
)

// String names the type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeRegister:
		return "register"
	case TypeSubmit:
		return "submit"
	case TypeAssign:
		return "assign"
	case TypeResult:
		return "result"
	case TypeHeartbeat:
		return "heartbeat"
	case TypeSnapshot:
		return "snapshot"
	case TypeMuxOpen:
		return "mux-open"
	case TypeMuxData:
		return "mux-data"
	case TypeMuxClose:
		return "mux-close"
	case TypeMuxWindow:
		return "mux-window"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// FlagWantSnapshot, set on a Register frame, asks the scheduler for a
// Snapshot reply before the first assignment.
const FlagWantSnapshot byte = 1 << 0

// FlagMux, set on the first Register frame of a connection, declares the
// connection a multiplexed session: every following frame belongs to the
// mux layer (MuxOpen/MuxData/MuxClose/MuxWindow), and logical workers
// and clients speak the ordinary protocol inside individual streams.
const FlagMux byte = 1 << 1

// FlagCoalesced marks a frame that was staged behind at least one other
// frame and left the sender in a single batched write.  It is purely
// observational — decoders ignore it — but it makes the coalescing
// behaviour visible on the wire and in counters.
const FlagCoalesced byte = 1 << 2

// Message is one protocol message.  Byte fields produced by Decode
// alias the Decoder's internal buffer and are valid only until the next
// Decode call; Encode never retains them.
type Message struct {
	Type  Type
	Flags byte
	// TaskID identifies the task for Submit/Assign/Result/Heartbeat.
	TaskID []byte
	// Name is the worker name (Register only).
	Name []byte
	// Err is the application error (Result only; empty = success).
	Err []byte
	// Payload is the opaque task/result body (Submit/Assign/Result).
	Payload []byte
	// Epoch, Pending and Leases are the Snapshot fields: the scheduler's
	// campaign epoch (tasks submitted so far), the queued-task count, and
	// the ids of every lease outstanding at snapshot time.
	Epoch   uint64
	Pending uint64
	Leases  [][]byte
	// Window is the MuxWindow field: bytes of send credit granted to the
	// peer on the stream named by TaskID.
	Window uint64
}

// Decode-failure sentinels.  Every malformed-frame error returned by
// Decoder.Decode wraps one of these (or io.ErrUnexpectedEOF for a frame
// cut mid-flight), so transports can count decode errors separately from
// ordinary connection teardown; see IsDecodeError.
var (
	// ErrBadMagic reports a frame that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports an unsupported format version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrBadType reports an unknown message type.
	ErrBadType = errors.New("wire: unknown message type")
	// ErrFrameTooLarge reports a body-length claim beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds limit")
	// ErrMalformed reports a syntactically invalid body (bad varint,
	// field overrun, trailing bytes).
	ErrMalformed = errors.New("wire: malformed frame")
)
