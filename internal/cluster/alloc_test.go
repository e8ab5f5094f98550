package cluster

import (
	"testing"

	"wearlock/internal/store"
)

// liveBatch is the shape replicated traffic ships per session: one
// device record and the service record after it.
func liveBatch() (*ReplicaAppendRequest, *ReplicaAppendResponse) {
	req := &ReplicaAppendRequest{Epoch: 3, ShardID: "shard-0", BatchSeq: 4107, FirstSeq: 9120, LastSeq: 9121,
		Records: []store.Record{
			{Seq: 9120, Device: &store.DeviceState{ID: 17, Key: []byte("0123456789abcdef"), GenCounter: 812,
				VerCounter: 811, GuardState: 1, NowUnixNano: 1_700_000_000_000_000_000, RngDraws: 40_211}},
			{Seq: 9121, Service: &store.ServiceState{Seq: 9121, NextDev: 18}},
		}}
	return req, &ReplicaAppendResponse{FollowerID: "shard-0-standby", AppliedSeq: 9121, ExpectedBatch: 4108}
}

// One live replica batch encoded, decoded, acked and the ack decoded —
// both ends of the stream with their retained frame buffers — stays
// under a fixed allocation count. encoding/json on the same round trip
// allocates several times as many objects.
func TestWireCodecBatchAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 8
	req, resp := liveBatch()
	var out, ack []byte
	roundTrip := func() {
		var err error
		if out, err = AppendFrame(out[:0], MsgReplicaAppend, req); err != nil {
			t.Fatal(err)
		}
		if _, err = DecodeAs[ReplicaAppendRequest](out, MsgReplicaAppend); err != nil {
			t.Fatal(err)
		}
		if ack, err = AppendFrame(ack[:0], MsgReplicaAppendAck, resp); err != nil {
			t.Fatal(err)
		}
		if _, err = DecodeAs[ReplicaAppendResponse](ack, MsgReplicaAppendAck); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > ceiling {
		t.Errorf("replica batch round trip allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per replica batch round trip", allocs)
	}
}

// Decoding a canonical POST /v1/unlock body allocates only its scenario
// string and device.
func TestUnlockBodyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 2
	body := []byte(`{"scenario":"out-of-range","device":17}`)
	decode := func() {
		var req UnlockRequest
		if err := DecodeUnlockRequest(body, &req); err != nil || req.Device == nil {
			t.Fatalf("%+v, %v", req, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs > ceiling {
		t.Errorf("unlock body decode allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per unlock body decode", allocs)
	}
}

// One unlock frame and its ack, each encoded and decoded with the
// retained frame buffers a stream keeps, stay under a fixed allocation
// count: the decoded request, its scenario and device, and the decoded
// ack with its body.
func TestUnlockStreamAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 5
	dev := 17
	req := &UnlockRequest{Scenario: "out-of-range", Device: &dev}
	resp := &UnlockResponse{Status: 200, Body: []byte(viewDone)}
	var out, ack []byte
	roundTrip := func() {
		var err error
		if out, err = AppendFrame(out[:0], MsgUnlock, req); err != nil {
			t.Fatal(err)
		}
		if _, err = DecodeAs[UnlockRequest](out, MsgUnlock); err != nil {
			t.Fatal(err)
		}
		if ack, err = AppendFrame(ack[:0], MsgUnlockAck, resp); err != nil {
			t.Fatal(err)
		}
		if _, err = DecodeAs[UnlockResponse](ack, MsgUnlockAck); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > ceiling {
		t.Errorf("unlock frame round trip allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per unlock frame round trip", allocs)
	}
}
