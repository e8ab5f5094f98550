package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"wearlock/internal/store"
)

// jsonFrame is the reference frame: the header around json.Marshal's
// payload, as Encode built every frame before the canonical writer.
func jsonFrame(t MsgType, payload any) []byte {
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	return rawFrame(t, body)
}

// rawFrame frames body verbatim.
func rawFrame(t MsgType, body []byte) []byte {
	frame := make([]byte, wireHeaderLen, wireHeaderLen+len(body))
	copy(frame, wireMagic)
	frame[4] = WireVersion
	frame[5] = byte(t)
	binary.LittleEndian.PutUint32(frame[6:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[10:], crc32.Checksum(body, wireCastagnoli))
	return append(frame, body...)
}

// decodeOracle is Decode with the canonical fast path off: every payload
// goes to the strict json.Decoder path.
func decodeOracle(data []byte) (Message, error) {
	t, payload, err := unframe(data)
	if err != nil {
		return Message{}, err
	}
	body := payloadFor(t)
	if err := decodeStrict(t, payload, body); err != nil {
		return Message{}, err
	}
	return Message{Type: t, Payload: body}, nil
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// hotMessage is one stream message and whether its encoding stays on
// the canonical fast path.
type hotMessage struct {
	payload any
	fast    bool
}

// hotMessages covers the streams' four message types at their edges:
// reset on and off, nil against empty records, noted records, extreme
// counters, negative device IDs, strings that need escaping, and unlock
// answers with and without Retry-After and body.
func hotMessages() []hotMessage {
	dev7, wait := 7, false
	dev := &store.DeviceState{ID: -3, Key: []byte{0xfb, 0xff}, GenCounter: math.MaxUint64, VerLockedOut: true,
		NowUnixNano: math.MinInt64, RngDraws: 9}
	return []hotMessage{
		{&ReplicaAppendRequest{}, true},
		{&ReplicaAppendRequest{Records: []store.Record{}}, true},
		{&ReplicaAppendRequest{Epoch: 2, ShardID: "shard-0", BatchSeq: 41, FirstSeq: 7, LastSeq: 8, Records: []store.Record{
			{Seq: 7, Device: dev}, {Seq: 8, Service: &store.ServiceState{Seq: 3, NextDev: 1}}}}, true},
		{&ReplicaAppendRequest{Epoch: math.MaxUint64, BatchSeq: math.MaxUint64, Reset: true,
			FirstSeq: math.MaxUint64, LastSeq: math.MaxUint64, Records: []store.Record{{Seq: 1}, {}}}, true},
		{&ReplicaAppendRequest{ShardID: "s0", Records: []store.Record{{Seq: 5, Device: &store.DeviceState{Key: []byte{}}}}}, true},
		{&ReplicaAppendRequest{ShardID: "s0", Records: []store.Record{{Seq: 1}, {Seq: 2, Note: "pad \"x\" <y>"}}}, false},
		{&ReplicaAppendRequest{ShardID: "s<&>\"é\x00"}, false},
		{&ReplicaAppendResponse{}, true},
		{&ReplicaAppendResponse{FollowerID: "standby", AppliedSeq: 12, ExpectedBatch: 42}, true},
		{&ReplicaAppendResponse{FollowerID: "f <1>", AppliedSeq: math.MaxUint64, ExpectedBatch: math.MaxUint64}, false},
		{(*ReplicaAppendRequest)(nil), false},
		{(*ReplicaAppendResponse)(nil), false},
		{&UnlockRequest{}, true},
		{&UnlockRequest{Scenario: "out-of-range", Device: &dev7}, true},
		{&UnlockRequest{Scenario: "quiet", Device: &dev7, Wait: &wait, TimeoutMS: -1}, true},
		{&UnlockRequest{Scenario: "caf\u00e9 <x>"}, false},
		{&UnlockResponse{Status: 200, Body: []byte(viewDone)}, true},
		{&UnlockResponse{Status: 429, RetryAfter: "3", Body: []byte(`{"error":"queue full"}` + "\n")}, true},
		{&UnlockResponse{}, true},
		{&UnlockResponse{Status: 503, RetryAfter: "<1>", Body: []byte{}}, false},
		{(*UnlockRequest)(nil), false},
		{(*UnlockResponse)(nil), false},
	}
}

func hotType(payload any) MsgType {
	switch payload.(type) {
	case *ReplicaAppendRequest:
		return MsgReplicaAppend
	case *ReplicaAppendResponse:
		return MsgReplicaAppendAck
	case *UnlockRequest:
		return MsgUnlock
	}
	return MsgUnlockAck
}

// isHot reports whether t has a canonical codec.
func isHot(t MsgType) bool {
	return t == MsgReplicaAppend || t == MsgReplicaAppendAck || t == MsgUnlock || t == MsgUnlockAck
}

// The canonical writer's WLC1 frames are json.Marshal's, byte for byte,
// and AppendFrame leaves what dst already held in place.
func TestWireCodecAppendFrameMatchesJSONMarshal(t *testing.T) {
	for i, m := range hotMessages() {
		p := m.payload
		want := jsonFrame(hotType(p), p)
		got, err := AppendFrame([]byte("prefix"), hotType(p), p)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("message %d: AppendFrame = %q (%v), want prefix + %q", i, got, err, want)
		}
		if enc, err := Encode(hotType(p), p); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("message %d: Encode = %q (%v), want %q", i, enc, err, want)
		}
	}
	if got, err := AppendFrame([]byte("keep"), msgTypeEnd, &HeartbeatRequest{}); err == nil || string(got) != "keep" {
		t.Errorf("unknown type: AppendFrame = %q, %v", got, err)
	}
}

// Every hot message decodes as the strict path decodes it, and exactly
// the canonical ones take the fast path: not a noted record, an escaped
// ID or a null payload.
func TestWireCodecDecodeMatchesStrictPath(t *testing.T) {
	for i, m := range hotMessages() {
		frame := jsonFrame(hotType(m.payload), m.payload)
		got, err := Decode(frame)
		want, errRef := decodeOracle(frame)
		if !sameError(err, errRef) || !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: Decode = %+v, %v; strict path = %+v, %v", i, got, err, want, errRef)
		}
		if _, fast := decodeCanonical(hotType(m.payload), frame[wireHeaderLen:], nil); fast != m.fast {
			t.Errorf("message %d: fast path %v, want %v", i, fast, m.fast)
		}
	}
}

// A hot message that leaves the canonical layout anywhere takes the
// strict path as a whole: an unknown field inside a record is refused,
// as the wire refuses it at the top level, and is never handed to the
// store's lenient per-record fallback.
func TestWireCodecStrictPathRefusesUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"epoch":1,"shard_id":"s0","batch_seq":1,"first_seq":1,"last_seq":1,"records":[{"seq":1,"surprise":true}]}`,
		`{"epoch":1,"shard_id":"s0","batch_seq":1,"first_seq":1,"last_seq":1,"records":[{"seq":1,"device":{"id":1,"key":null,"gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0,"x":1}}]}`,
		`{"epoch":1,"shard_id":"s0","batch_seq":1,"first_seq":1,"last_seq":1,"records":null,"surprise":true}`,
	} {
		if _, err := Decode(rawFrame(MsgReplicaAppend, []byte(body))); err == nil {
			t.Errorf("unknown field accepted: %s", body)
		}
	}
	if _, err := Decode(rawFrame(MsgReplicaAppendAck, []byte(`{"follower_id":"f","applied_seq":1,"expected_batch":2,"x":0}`))); err == nil {
		t.Error("unknown ack field accepted")
	}
}

// wireCodecSeeds are hot payloads off the canonical layout, one per way
// out of it, plus canonical ones at the edges.
var wireCodecSeeds = []struct {
	t    MsgType
	body string
}{
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3,"device":{"id":-1,"key":"aw==","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}]}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"reset":true,"first_seq":3,"last_seq":3,"records":[]}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"epoch":18446744073709551615,"shard_id":"s0","batch_seq":18446744073709551615,"first_seq":0,"last_seq":0,"records":null}`},
	{MsgReplicaAppend, `{"epoch":18446744073709551616,"shard_id":"s0","batch_seq":1,"first_seq":0,"last_seq":0,"records":null}`},
	{MsgReplicaAppend, `{ "epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"shard_id":"s0","epoch":1,"batch_seq":2,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"Epoch":1,"SHARD_ID":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s\u0030","batch_seq":2,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"reset":false,"first_seq":3,"last_seq":3,"records":null}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":null,"surprise":1}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3,"surprise":1}]}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3,"note":"n"}]}`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3}]} `},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3}]}x`},
	{MsgReplicaAppend, `{"epoch":1,"shard_id":"s0","batch_seq":2,"first_seq":3,"last_seq":3,"records":[{"seq":3}]}{}`},
	{MsgReplicaAppend, `null`},
	{MsgReplicaAppendAck, `{"follower_id":"f","applied_seq":18446744073709551615,"expected_batch":0}`},
	{MsgReplicaAppendAck, `{"follower_id":"f","expected_batch":0,"applied_seq":1}`},
	{MsgReplicaAppendAck, `{"follower_id":"f<","applied_seq":1,"expected_batch":0}`},
	{MsgReplicaAppendAck, `{"follower_id":"f","applied_seq":01,"expected_batch":0}`},
	{MsgReplicaAppendAck, `{"follower_id":"f","applied_seq":1,"expected_batch":0}` + "\n"},
	{MsgHeartbeat, `{"epoch":1}`},
	{MsgUnlock, `{"device":3,"scenario":"quiet"}`},
	{MsgUnlock, `{"scenario":"quiet","device":3,"surprise":1}`},
	{MsgUnlock, `{"scenario":"","device":-0}`},
	{MsgUnlock, `{"device":9223372036854775808}`},
	{MsgUnlock, `{"wait":true,"timeout_ms":0}`},
	{MsgUnlock, `{"scenario":"q"} `},
	{MsgUnlock, `null`},
	{MsgUnlockAck, `{"status":200,"body":"eyJpZCI6InMtMSJ9Cg=="}`},
	{MsgUnlockAck, `{"status":200,"retry_after":"","body":null}`},
	{MsgUnlockAck, `{"status":429,"retry_after":"2","body":"e30"}`},
	{MsgUnlockAck, `{"status":429,"body":"e30=","retry_after":"2"}`},
	{MsgUnlockAck, `{"status":-1,"body":"e30=","x":1}`},
}

// checkWireAgainstOracle holds Decode to the strict path on one input —
// the same type, a reflect.DeepEqual payload and the same error — and
// requires a decoded hot message to re-encode to json.Marshal's frame.
func checkWireAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := Decode(data)
	want, errRef := decodeOracle(data)
	if !sameError(err, errRef) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v; strict path = %+v, %v", data, got, err, want, errRef)
	}
	if err != nil || !isHot(got.Type) {
		return
	}
	enc, err := AppendFrame(nil, got.Type, got.Payload)
	if ref := jsonFrame(got.Type, got.Payload); err != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("re-encoding %q: AppendFrame = %q (%v), json.Marshal frame = %q", data, enc, err, ref)
	}
}

func TestWireCodecSeedsMatchStrictPath(t *testing.T) {
	for _, s := range wireCodecSeeds {
		checkWireAgainstOracle(t, rawFrame(s.t, []byte(s.body)))
	}
}

// unlockBodySeeds are POST /v1/unlock bodies: canonical ones, and one per
// way out of the canonical layout.
var unlockBodySeeds = []string{
	`{"scenario":"quiet","device":3}`,
	`{"scenario":"quiet","device":-1,"wait":false,"timeout_ms":2500}`,
	`{"device":9223372036854775807}`,
	`{"device":-9223372036854775808,"wait":true}`,
	`{"device":9223372036854775808}`,
	`{"timeout_ms":18446744073709551615}`,
	`{"wait":true}`,
	`{}`,
	`{"scenario":""}`,
	`{"scenario":"quiet","device":3}` + "\n",
	`{"scenario":"quiet","device":3}trailing`,
	`{"scenario":"quiet","device":3}{"device":4}`,
	` {"scenario":"quiet"}`,
	`{"scenario": "quiet"}`,
	`{"device":3,"scenario":"quiet"}`,
	`{"Scenario":"quiet","DEVICE":3}`,
	`{"scenario":"quiet"}`,
	`{"scenario":"<cafe>"}`,
	`{"scenario":"qui\u0065t","device":3}`,
	`{"scen\u0061rio":"quiet"}`,
	`{"scenario":"quiet","surprise":1}`,
	`{"scenario":"quiet","scenario":"cafe"}`,
	`{"device":null}`,
	`{"device":-0}`,
	`{"device":03}`,
	`{"device":1.5}`,
	`{"device":"3"}`,
	`{"wait":1}`,
	`{"scenario":"quiet",}`,
	`{"scenario":"quiet"`,
	`null`,
	`[]`,
	`"quiet"`,
	``,
	`   `,
}

// checkUnlockBodyAgainstDecoder holds DecodeUnlockRequest to the
// json.Decoder both handlers used before it — the same value and the
// same error — and requires whatever decoded to re-encode to
// json.Marshal's bytes.
func checkUnlockBodyAgainstDecoder(t *testing.T, body []byte) {
	t.Helper()
	var got, want UnlockRequest
	err := DecodeUnlockRequest(body, &got)
	errRef := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if !sameError(err, errRef) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeUnlockRequest(%q) = %+v, %v; json.Decoder = %+v, %v", body, got, err, want, errRef)
	}
	if err != nil {
		return
	}
	enc := AppendUnlockRequest([]byte("x"), &got)
	if ref, _ := json.Marshal(&got); !bytes.Equal(enc, append([]byte("x"), ref...)) {
		t.Fatalf("re-encoding %q: AppendUnlockRequest = %s, json.Marshal = x%s", body, enc, ref)
	}
}

func TestUnlockBodySeedsMatchJSONDecoder(t *testing.T) {
	for _, s := range unlockBodySeeds {
		checkUnlockBodyAgainstDecoder(t, []byte(s))
	}
}

// FuzzUnlockBody holds the one unlock-body decoder the shard and the
// gateway share to json.Decoder on arbitrary bytes.
func FuzzUnlockBody(f *testing.F) {
	for _, s := range unlockBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkUnlockBodyAgainstDecoder)
}
