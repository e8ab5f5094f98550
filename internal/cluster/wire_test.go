package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"wearlock/internal/store"
)

// TestWireRoundTrip encodes one of every message type and decodes it
// back, checking type and payload survive the frame.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct {
		t       MsgType
		payload any
	}{
		{MsgRegister, &RegisterRequest{ShardID: "s0", Epoch: 3, TotalDevices: 64, Owned: []int{1, 2, 3}}},
		{MsgRegisterAck, &RegisterResponse{ShardID: "s0", Epoch: 3, GoVersion: "go0.0", Devices: 64, Ready: true}},
		{MsgHeartbeat, &HeartbeatRequest{Epoch: 3}},
		{MsgHeartbeatAck, &HeartbeatResponse{ShardID: "s0", Epoch: 3, Ready: true, Inflight: 2, OwnedCount: 21}},
		{MsgExportRange, &ExportRangeRequest{Epoch: 3, Devices: []int{4, 5}, Since: 17, Fence: true}},
		{MsgExportRangeAck, &ExportRangeResponse{ShardID: "s0", LastSeq: 99, Fenced: 2,
			Records: []store.Record{{Seq: 1, Device: &store.DeviceState{ID: 4, Key: []byte("k"), VerCounter: 7}}}}},
		{MsgImportRange, &ImportRangeRequest{Epoch: 3, Devices: []int{4}, Adopt: true}},
		{MsgImportRangeAck, &ImportRangeResponse{ShardID: "s1", Imported: 12, Adopted: 1}},
		{MsgReleaseRange, &ReleaseRangeRequest{Epoch: 3, Devices: []int{4, 5}}},
		{MsgReleaseRangeAck, &ReleaseRangeResponse{ShardID: "s0", Released: 2}},
		{MsgError, &ErrorPayload{Error: "stale epoch"}},
	}
	for _, tc := range cases {
		data, err := Encode(tc.t, tc.payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.t, err)
		}
		m, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.t, err)
		}
		if m.Type != tc.t {
			t.Fatalf("round-trip type %s, want %s", m.Type, tc.t)
		}
		if !reflect.DeepEqual(m.Payload, tc.payload) {
			t.Errorf("%s: payload round-trip mismatch:\n got %+v\nwant %+v", tc.t, m.Payload, tc.payload)
		}
	}
}

// TestWireDecodeRejects pins the malformed-frame error paths.
func TestWireDecodeRejects(t *testing.T) {
	good, err := Encode(MsgHeartbeat, &HeartbeatRequest{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:wireHeaderLen-1],
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"wrong version":  corrupt(func(b []byte) { b[4] = WireVersion + 1 }),
		"unknown type":   corrupt(func(b []byte) { b[5] = byte(msgTypeEnd) }),
		"zero type":      corrupt(func(b []byte) { b[5] = 0 }),
		"length too big": corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:], MaxWireSize+1) }),
		"length lies":    corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 1) }),
		"crc mismatch":   corrupt(func(b []byte) { b[len(b)-1] ^= 0xff }),
		"truncated body": good[:len(good)-2],
		"trailing junk":  append(append([]byte(nil), good...), '!'),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted a malformed frame", name)
		}
	}
}

// TestWireDecodeStrictJSON checks unknown payload fields are rejected —
// the version gate is the only sanctioned evolution mechanism.
func TestWireDecodeStrictJSON(t *testing.T) {
	body := []byte(`{"epoch":1,"surprise":true}`)
	frame := make([]byte, wireHeaderLen+len(body))
	copy(frame, wireMagic)
	frame[4] = WireVersion
	frame[5] = byte(MsgHeartbeat)
	binary.LittleEndian.PutUint32(frame[6:], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[10:], crc32.Checksum(body, wireCastagnoli))
	copy(frame[wireHeaderLen:], body)
	if _, err := Decode(frame); err == nil {
		t.Error("unknown payload field accepted")
	}
}

// TestDecodeAs pins the shared receive path: type mismatch errors,
// MsgError unwraps to a Go error carrying the peer's message.
func TestDecodeAs(t *testing.T) {
	data, err := Encode(MsgHeartbeatAck, &HeartbeatResponse{ShardID: "s0", Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeAs[HeartbeatResponse](data, MsgHeartbeatAck)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ShardID != "s0" || ack.Epoch != 2 {
		t.Errorf("DecodeAs payload = %+v", ack)
	}
	if _, err := DecodeAs[RegisterResponse](data, MsgRegisterAck); err == nil {
		t.Error("type mismatch accepted")
	}
	errFrame, err := Encode(MsgError, &ErrorPayload{Error: "stale epoch 2 < 5"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeAs[HeartbeatResponse](errFrame, MsgHeartbeatAck)
	if err == nil || !strings.Contains(err.Error(), "stale epoch 2 < 5") {
		t.Errorf("MsgError not unwrapped: %v", err)
	}
}

// FuzzWireProtocol is the decoder's safety contract: arbitrary bytes
// never panic, and every valid encoding the fuzzer mutates from the
// seed corpus either decodes cleanly or errors — no third state. It is
// also the canonical codec's differential proof: Decode agrees with the
// strict json.Decoder path on type, payload and error for every input,
// and a decoded stream message re-encodes to json.Marshal's frame.
func FuzzWireProtocol(f *testing.F) {
	seeds := [][]byte{nil, []byte("WLC1"), bytes.Repeat([]byte{0xff}, 64)}
	if frame, err := Encode(MsgRegister, &RegisterRequest{ShardID: "s0", Epoch: 1, TotalDevices: 4, Owned: []int{0, 1}}); err == nil {
		seeds = append(seeds, frame)
	}
	if frame, err := Encode(MsgExportRangeAck, &ExportRangeResponse{ShardID: "s1",
		Records: []store.Record{{Seq: 9, Device: &store.DeviceState{ID: 3, Key: []byte("k")}}}}); err == nil {
		seeds = append(seeds, frame)
	}
	if frame, err := Encode(MsgError, &ErrorPayload{Error: "x"}); err == nil {
		seeds = append(seeds, frame)
	}
	if frame, err := Encode(MsgError, &ErrorPayload{Error: "fenced", Status: 409}); err == nil {
		seeds = append(seeds, frame)
	}
	if frame, err := Encode(MsgReplicaAppend, &ReplicaAppendRequest{Epoch: 1, ShardID: "s0", BatchSeq: 4, FirstSeq: 9, LastSeq: 9,
		Records: []store.Record{{Seq: 9, Device: &store.DeviceState{ID: 3, Key: []byte("k"), GenCounter: 2}}}}); err == nil {
		seeds = append(seeds, frame)
	}
	for _, m := range hotMessages() {
		seeds = append(seeds, jsonFrame(hotType(m.payload), m.payload))
	}
	for _, s := range wireCodecSeeds {
		seeds = append(seeds, rawFrame(s.t, []byte(s.body)), []byte(s.body))
	}
	dev := 5
	if frame, err := Encode(MsgUnlock, &UnlockRequest{Scenario: "walk", Device: &dev}); err == nil {
		seeds = append(seeds, frame)
	}
	if frame, err := Encode(MsgUnlockAck, &UnlockResponse{Status: 503, RetryAfter: "1", Body: []byte(`{"error":"draining"}`)}); err == nil {
		seeds = append(seeds, frame)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireAgainstOracle(t, data)
		// The CRC keeps most mutations out of a frame's payload, so the
		// input is also framed as each stream message's payload.
		for _, hot := range []MsgType{MsgReplicaAppend, MsgReplicaAppendAck, MsgUnlock, MsgUnlockAck} {
			checkWireAgainstOracle(t, rawFrame(hot, data))
		}
		m, err := Decode(data)
		if err == nil {
			if m.Type == 0 || m.Payload == nil {
				t.Fatalf("nil-error decode returned zero message: %+v", m)
			}
			// A decoded message must re-encode: Decode only accepts what
			// Encode can produce.
			if _, err := Encode(m.Type, m.Payload); err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
		}
		// The stream reader on the same bytes twice over: every frame it
		// returns is the next slice of the input, and a frame Decode
		// accepts comes back whole, twice, then a clean EOF.
		stream := append(append([]byte(nil), data...), data...)
		br := bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		read, frames := 0, 0
		var rerr error
		for {
			buf, rerr = ReadFrame(br, buf)
			if rerr != nil {
				break
			}
			if len(buf) < wireHeaderLen || !bytes.Equal(buf, stream[read:read+len(buf)]) {
				t.Fatalf("frame %d is not the next %d input bytes", frames, len(buf))
			}
			read += len(buf)
			frames++
		}
		if err == nil && (frames != 2 || read != len(stream) || rerr != io.EOF) {
			t.Fatalf("decodable frame read back as %d frames over %d of %d bytes, then %v", frames, read, len(stream), rerr)
		}
	})
}

// TestReadFrame pins the stream reader: back-to-back frames come apart
// whole into one retained buffer, and a torn, oversized or foreign
// header is refused before its payload is read.
func TestReadFrame(t *testing.T) {
	small, _ := Encode(MsgHeartbeat, &HeartbeatRequest{Epoch: 1})
	big, _ := Encode(MsgError, &ErrorPayload{Error: strings.Repeat("x", 2000), Status: 503})
	var stream []byte
	for _, f := range [][]byte{small, big, small} {
		stream = append(stream, f...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	var err error
	for i, want := range [][]byte{small, big, small} {
		if buf, err = ReadFrame(br, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("frame %d: %v (%d bytes, want %d)", i, err, len(buf), len(want))
		}
	}
	if cap(buf) < len(big) {
		t.Errorf("buffer not retained across frames: cap %d", cap(buf))
	}
	if _, err = ReadFrame(br, buf); err != io.EOF {
		t.Errorf("clean end of stream: %v, want io.EOF", err)
	}
	oversized := append([]byte(nil), small...)
	binary.LittleEndian.PutUint32(oversized[6:], MaxWireSize+1)
	badMagic := append([]byte(nil), small...)
	badMagic[0] = 'X'
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"torn header":  {small[:5], io.ErrUnexpectedEOF},
		"torn payload": {small[:len(small)-1], io.ErrUnexpectedEOF},
		"oversized":    {oversized, nil},
		"bad magic":    {badMagic, nil},
	} {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)), nil)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: ReadFrame = %v, want %v", name, err, tc.want)
		}
	}
}
