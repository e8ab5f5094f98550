package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
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

// Decoding a canonical POST /v1/unlock body into a fresh request
// allocates only its device: the scenario name is one read before.
func TestUnlockBodyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 1
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
// count: the decoded request and its device, and the decoded ack with
// its body.
func TestUnlockStreamAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 4
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

// nullWriter is a ResponseWriter that keeps nothing but the status, so a
// relay's count holds the gateway's own allocations only.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

func (w *nullWriter) WriteString(s string) (int, error) { return len(s), nil }

// A warm POST /v1/unlock relayed from the gateway to a shard over a
// pooled unlock stream, the shard answering from the stream's own
// buffers, stays under a fixed allocation count: the Content-Length
// value and its header slice. The body, its decoded request and the
// device the gateway pins live in a pooled UnlockBody, and nothing per
// request is left in the stream, its exchange or the decoded answer. (A
// served request adds its context's done channel, which a background
// context does not have.)
func TestGatewayRelayAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 2
	ss := NewStreamServer(UnlockStreamProto)
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+UnlockStreamPath, func(w http.ResponseWriter, r *http.Request) {
		var req UnlockRequest
		ack := UnlockResponse{Status: http.StatusOK, Body: []byte(viewDone)}
		ss.Serve(w, r, func(_ context.Context, frame, out []byte) ([]byte, error) {
			if _, err := DecodeAsInto(frame, MsgUnlock, &req); err != nil {
				return out, err
			}
			return AppendFrame(out, MsgUnlockAck, &ack)
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer ss.Close()
	g, err := NewGateway(GatewayConfig{Shards: []ShardConfig{{Name: "s0", BaseURL: srv.URL}}, TotalDevices: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	payload := []byte(`{"scenario":"out-of-range","device":1}`)
	rd := bytes.NewReader(payload)
	r := httptest.NewRequest(http.MethodPost, "/v1/unlock", nil)
	body := io.NopCloser(rd)
	w := &nullWriter{h: http.Header{}}
	relay := func() {
		rd.Reset(payload)
		r.Body, r.ContentLength = body, int64(len(payload))
		clear(w.h)
		g.handleUnlock(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("relay answered %d", w.status)
		}
	}
	relay()
	if allocs := testing.AllocsPerRun(200, relay); allocs > ceiling {
		t.Errorf("warm gateway relay allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per warm gateway relay", allocs)
	}
}
