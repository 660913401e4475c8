// Package cluster is a small distributed task system in the style of the
// Dask scheduler/worker/client deployment the paper used on Summit
// (§2.2.5): a client submits fitness-evaluation tasks to a scheduler,
// which fans them out to workers (one per compute node in the paper);
// results flow back to the client.  Matching the paper's operational
// choices, there are no "nannies" — a worker that dies stays dead, and the
// scheduler reassigns its in-flight tasks to surviving workers.
package cluster

import (
	"encoding/json"

	"repro/internal/cluster/wire"
)

// message is one protocol message: the retained, string-typed form of a
// binary frame (internal/cluster/wire), which the codec converts at the
// connection boundary.
type message struct {
	Type    wire.Type
	Flags   byte // register: wire.FlagWantSnapshot, wire.FlagMux
	TaskID  string
	Name    string // worker name on register
	Payload json.RawMessage
	Err     string
	Snap    *snapshotData
}

// snapshotData is the compact scheduler state a late-joining worker
// receives instead of any history replay: where the campaign stands
// (Epoch counts tasks submitted so far), how deep the queue is, and
// which leases are outstanding right now.  Its size is O(in-flight
// tasks), independent of how long the campaign has been running.
type snapshotData struct {
	Epoch   uint64
	Pending int
	Leases  []string
}
