package cluster

import (
	"bytes"
	"testing"

	"repro/internal/cluster/wire"
)

// FuzzCodecRoundTrip is the codec's round-trip oracle: one message,
// encoded and decoded through the binary codec, must come back with
// every field the message type carries exactly as it went in — raw
// bytes included, valid UTF-8 or not.  Any field the codec drops,
// reorders or mangles is a bug; the reference is the input message
// itself.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(byte(0), byte(1), "", "worker-0", "", []byte(nil), uint64(0), uint64(0), "")
	f.Add(byte(1), byte(0), "task-1", "", "", []byte(`{"genome":[0.5,-1.5]}`), uint64(0), uint64(0), "")
	f.Add(byte(2), byte(0), "task-2", "", "", []byte(`{"genome":[1]}`), uint64(0), uint64(0), "")
	f.Add(byte(3), byte(0), "task-3", "", "diverged", []byte(`{"fitness":[2.5]}`), uint64(0), uint64(0), "")
	f.Add(byte(4), byte(0), "task-4", "", "", []byte(nil), uint64(0), uint64(0), "")
	f.Add(byte(5), byte(0), "", "", "", []byte(nil), uint64(981), uint64(12), "lease-a")

	f.Fuzz(func(t *testing.T, typ, flags byte, taskID, name, errStr string, payload []byte, epoch, pending uint64, lease string) {
		types := []wire.Type{wire.TypeRegister, wire.TypeSubmit, wire.TypeAssign, wire.TypeResult, wire.TypeHeartbeat, wire.TypeSnapshot}
		in := &message{Type: types[int(typ)%len(types)], Flags: flags}
		// Populate only the fields the message type carries on the wire.
		switch in.Type {
		case wire.TypeRegister:
			in.Name = name
		case wire.TypeSubmit, wire.TypeAssign, wire.TypeResult, wire.TypeHeartbeat:
			if len(taskID) > wire.MaxTaskID {
				taskID = taskID[:wire.MaxTaskID]
			}
			in.TaskID = taskID
		}
		if in.Type == wire.TypeSubmit || in.Type == wire.TypeAssign || in.Type == wire.TypeResult {
			if len(payload) > 0 {
				in.Payload = payload
			}
		}
		if in.Type == wire.TypeResult {
			in.Err = errStr
		}
		if in.Type == wire.TypeSnapshot {
			in.Snap = &snapshotData{Epoch: epoch, Pending: int(pending % (1 << 30)), Leases: []string{lease}}
		}

		var buf bytes.Buffer
		cd := newCodec(&buf, &buf, &wireCounters{})
		if err := cd.write(in); err != nil {
			t.Fatalf("encode of %+v: %v", in, err)
		}
		out, err := cd.read()
		if err != nil {
			t.Fatalf("decode of own encoding of %+v: %v", in, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("decode left %d of its own frame's bytes unread", buf.Len())
		}

		if out.Type != in.Type || out.Flags != in.Flags || out.TaskID != in.TaskID ||
			out.Name != in.Name || out.Err != in.Err || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip changed the message:\n in  %+v\n out %+v", in, out)
		}
		if (out.Snap == nil) != (in.Snap == nil) {
			t.Fatalf("snapshot presence changed: in %+v, out %+v", in.Snap, out.Snap)
		}
		if in.Snap != nil {
			if out.Snap.Epoch != in.Snap.Epoch || out.Snap.Pending != in.Snap.Pending ||
				len(out.Snap.Leases) != len(in.Snap.Leases) {
				t.Fatalf("snapshot changed:\n in  %+v\n out %+v", in.Snap, out.Snap)
			}
			for i := range in.Snap.Leases {
				if out.Snap.Leases[i] != in.Snap.Leases[i] {
					t.Fatalf("lease %d changed: %q vs %q", i, in.Snap.Leases[i], out.Snap.Leases[i])
				}
			}
		}
	})
}
