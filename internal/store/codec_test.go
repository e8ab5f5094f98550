package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// codecEdgeDevices covers every field at its extremes, nil against empty
// keys, and key lengths across all three base64 padding shapes.
func codecEdgeDevices() []DeviceState {
	return []DeviceState{
		{},
		{ID: 7, Key: []byte{}},
		{ID: 1, Key: []byte{0}, GuardState: 2},
		{ID: 2, Key: []byte{0xff, 0xfe}, VerLockedOut: true},
		{ID: 3, Key: []byte("abc"), GenCounter: 1, VerCounter: 1},
		{ID: 4, Key: bytes.Repeat([]byte{0xfb, 0xef}, 17), NowUnixNano: -1},
		{
			ID: math.MaxInt, Key: []byte("k"), GenCounter: math.MaxUint64, VerCounter: math.MaxUint64,
			VerFailures: math.MaxInt, VerLockedOut: true, GuardState: math.MaxInt, GuardFailures: math.MaxInt,
			NowUnixNano: math.MaxInt64, RngDraws: math.MaxUint64,
		},
		{
			ID: math.MinInt, Key: []byte("k"), VerFailures: math.MinInt, GuardState: -3,
			GuardFailures: math.MinInt, NowUnixNano: math.MinInt64,
		},
	}
}

func randomDevice(rng *rand.Rand) DeviceState {
	var key []byte
	if n := rng.Intn(40) - 1; n >= 0 {
		key = make([]byte, n)
		rng.Read(key)
	}
	signed := func() int64 { return int64(rng.Uint64()) >> uint(rng.Intn(64)) }
	return DeviceState{
		ID: int(signed()), Key: key, GenCounter: rng.Uint64() >> uint(rng.Intn(64)),
		VerCounter: rng.Uint64() >> uint(rng.Intn(64)), VerFailures: int(signed()),
		VerLockedOut: rng.Intn(2) == 0, GuardState: int(signed()), GuardFailures: int(signed()),
		NowUnixNano: signed(), RngDraws: rng.Uint64() >> uint(rng.Intn(64)),
	}
}

func codecRecords() []Record {
	var recs []Record
	for _, d := range codecEdgeDevices() {
		d := d
		recs = append(recs, Record{Seq: uint64(len(recs)), Device: &d})
	}
	recs = append(recs,
		Record{},
		Record{Seq: math.MaxUint64},
		Record{Seq: 5, Service: &ServiceState{Seq: math.MaxUint64, NextDev: 3}},
		Record{Seq: 6, Device: &DeviceState{ID: 1, Key: []byte("k")}, Service: &ServiceState{}},
		Record{Seq: 7, Note: "pad"},
		Record{Seq: 8, Note: "quote\" backslash\\ <html>&  \x00 \xff", Device: &DeviceState{Key: []byte("k")}},
	)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		rec := Record{Seq: rng.Uint64() >> uint(rng.Intn(64))}
		if rng.Intn(4) > 0 {
			d := randomDevice(rng)
			rec.Device = &d
		}
		if rng.Intn(3) == 0 {
			rec.Service = &ServiceState{Seq: rng.Uint64(), NextDev: rng.Uint64() >> 40}
		}
		recs = append(recs, rec)
	}
	return recs
}

func codecSnapshots() []snapshotPayload {
	rng := rand.New(rand.NewSource(17))
	many := make([]DeviceState, 64)
	for i := range many {
		many[i] = randomDevice(rng)
	}
	return []snapshotPayload{
		{},
		{LastSeq: math.MaxUint64, Service: ServiceState{Seq: 9, NextDev: math.MaxUint64}, Devices: []DeviceState{}},
		{LastSeq: 3, Devices: codecEdgeDevices()[:1]},
		{LastSeq: 4, Devices: codecEdgeDevices()},
		{LastSeq: 5, Service: ServiceState{Seq: 41, NextDev: 3}, Devices: many},
	}
}

// The encoder must write exactly json.Marshal's bytes, framed exactly as
// the reference framing frames them, for every record and snapshot shape
// the store can hold.
func TestAppendRecordMatchesJSONMarshal(t *testing.T) {
	for i, rec := range codecRecords() {
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRecord([]byte("prefix"), &rec)
		if err != nil || !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
			t.Fatalf("record %d: AppendRecord = %s (err %v), want prefix + %s", i, got, err, want)
		}
		framed, err := appendRecordFrame([]byte("prefix"), &rec)
		if err != nil || !bytes.Equal(framed[6:], frameReference(recordMagic, want)) {
			t.Fatalf("record %d: appendRecordFrame differs from the reference frame of %s", i, want)
		}
	}
	for i, sp := range codecSnapshots() {
		want, err := json.Marshal(&sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSnapshot(nil, &sp); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: appendSnapshot = %s, want %s", i, got, want)
		}
		if got := snapshotFrame(&sp); !bytes.Equal(got, frameReference(snapMagic, want)) {
			t.Fatalf("snapshot %d: snapshotFrame differs from the reference frame", i)
		}
	}
}

func TestAppendRecordFrameRejectsOversizeRecord(t *testing.T) {
	rec := Record{Seq: 1, Note: string(bytes.Repeat([]byte("n"), MaxRecordSize))}
	dst := []byte("prefix")
	got, err := appendRecordFrame(dst, &rec)
	if err == nil || !bytes.Equal(got, []byte("prefix")) {
		t.Fatalf("oversize record: err %v, dst %d bytes; want an error and dst unchanged", err, len(got))
	}
}

// Every payload the encoder writes without a note decodes on the fast
// path to the record json.Unmarshal returns.
func TestDecodeRecordCanonicalFastPath(t *testing.T) {
	for i, rec := range codecRecords() {
		payload, err := AppendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Record
		slow, err := decodeRecord(payload, &got)
		if err != nil || slow != (rec.Note != "") {
			t.Fatalf("record %d %s: slow=%v err=%v", i, payload, slow, err)
		}
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: decodeRecord = %+v, json.Unmarshal = %+v", i, got, want)
		}
	}
	for i, sp := range codecSnapshots() {
		payload := appendSnapshot(nil, &sp)
		var got, want snapshotPayload
		slow, err := decodeSnapshot(payload, &got)
		if err != nil || slow {
			t.Fatalf("snapshot %d: slow=%v err=%v", i, slow, err)
		}
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %d: decodeSnapshot differs from json.Unmarshal", i)
		}
	}
}

// codecFallbackSeeds holds one payload per way out of the canonical
// layout; each must decode exactly as json.Unmarshal decodes it.
var codecFallbackSeeds = []string{
	`{ "seq":1}`,
	`{"seq":1} `,
	`{"seq":1}x`,
	`{"seq":1}{"seq":2}`,
	`{"SEQ":1}`,
	`{"Seq":1,"Device":{"ID":2}}`,
	`{"device":{"id":1,"key":"aw=="},"seq":2}`,
	`{"seq":1,"seq":2}`,
	`{"seq":1,"device":{"id":1,"id":2}}`,
	`{"seq":null}`,
	`{"seq":1,"device":null}`,
	`{"seq":1,"service":null}`,
	`{"seq":1,"device":{}}`,
	`{"seq":1,"device":{"id":1,"key":"aw=="}}`,
	`{"seq":1,"device":{"id":1,"key":"aw==","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0},"note":"n"}`,
	`{"seq":1,"note":"a\"b"}`,
	`{"seq":1,"note":""}`,
	`{"seq":18446744073709551616}`,
	`{"seq":99999999999999999999}`,
	`{"seq":1,"device":{"id":9223372036854775808,"key":null,"gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":-9223372036854775809,"key":null,"gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":01}`,
	`{"seq":-0}`,
	`{"seq":-1}`,
	`{"seq":1e3}`,
	`{"seq":1.0}`,
	`{"seq":1,"device":{"id":-0,"key":"","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":1,"key":"AB==","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":true,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":1,"key":"\u0061w==","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":1,"key":"a\/8=","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":false,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":1,"key":"A","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":true,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"seq":1,"device":{"id":1,"key":"k","gen_counter":0,"ver_counter":0,"ver_failures":0,"ver_locked_out":1,"guard_state":0,"guard_failures":0,"now_unix_nano":0,"rng_draws":0}}`,
	`{"last_seq":1,"service":{"seq":2,"next_dev":3},"devices":null} `,
	`{"last_seq":1,"service":{"seq":2,"next_dev":3},"devices":[{}]}`,
	`{"last_seq":1,"service":{"seq":2,"next_dev":3},"devices":[],"devices":null}`,
	`{"last_seq":1,"service":null,"devices":[]}`,
	`{"service":{"seq":2,"next_dev":3},"last_seq":1,"devices":[]}`,
	`null`,
	`{}`,
	`[]`,
	``,
}

func TestDecodeFallbackMatchesJSONUnmarshal(t *testing.T) {
	for _, s := range codecFallbackSeeds {
		checkCodecAgainstJSON(t, []byte(s))
	}
}

// checkCodecAgainstJSON holds decodeRecord and decodeSnapshot to
// json.Unmarshal on data — same error, same value — and, for whatever
// decoded, checks that re-encoding matches json.Marshal and decodes
// back on the fast path to the same value.
func checkCodecAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	var rec, recRef Record
	_, err := decodeRecord(data, &rec)
	errRef := json.Unmarshal(data, &recRef)
	if !sameError(err, errRef) || !reflect.DeepEqual(rec, recRef) {
		t.Fatalf("decodeRecord(%q) = %+v, %v; json.Unmarshal = %+v, %v", data, rec, err, recRef, errRef)
	}
	if err == nil {
		enc, err := AppendRecord(nil, &rec)
		ref, errRef := json.Marshal(&rec)
		if err != nil || errRef != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("re-encoding %q: AppendRecord = %s (%v), json.Marshal = %s (%v)", data, enc, err, ref, errRef)
		}
		var back Record
		slow, err := decodeRecord(enc, &back)
		if err != nil || slow != (rec.Note != "") || !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip of %s: slow=%v err=%v got %+v want %+v", enc, slow, err, back, rec)
		}
	}

	var sp, spRef snapshotPayload
	_, err = decodeSnapshot(data, &sp)
	errRef = json.Unmarshal(data, &spRef)
	if !sameError(err, errRef) || !reflect.DeepEqual(sp, spRef) {
		t.Fatalf("decodeSnapshot(%q) = %+v, %v; json.Unmarshal = %+v, %v", data, sp, err, spRef, errRef)
	}
	if err == nil {
		enc := appendSnapshot(nil, &sp)
		ref, errRef := json.Marshal(&sp)
		if errRef != nil || !bytes.Equal(enc, ref) {
			t.Fatalf("re-encoding %q: appendSnapshot = %s, json.Marshal = %s (%v)", data, enc, ref, errRef)
		}
		var back snapshotPayload
		slow, err := decodeSnapshot(enc, &back)
		if err != nil || slow || !reflect.DeepEqual(back, sp) {
			t.Fatalf("round trip of %s: slow=%v err=%v", enc, slow, err)
		}
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// FuzzRecordCodec holds the codec to encoding/json on arbitrary bytes:
// decodeRecord and decodeSnapshot must agree with json.Unmarshal on the
// error and on the value, and whatever decodes must re-encode to
// json.Marshal's bytes and decode back unchanged on the fast path.
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range codecRecords()[:20] {
		payload, err := AppendRecord(nil, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, sp := range codecSnapshots()[:4] {
		f.Add(appendSnapshot(nil, &sp))
	}
	for _, s := range codecFallbackSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodecAgainstJSON(t, data)
	})
}

// A log this build wrote — records, checkpoint footers at segment seals
// and a compacted snapshot — replays without one decode leaving the fast
// path; a note record is the one shape that does.
func TestRecoveryDecodesOwnLogOnFastPath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, NoFsync: true, SegmentBytes: 2048, SnapshotEvery: 150})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d := DeviceState{ID: i % 11, Key: []byte{byte(i % 11), 1, 2}, GenCounter: uint64(i), VerCounter: uint64(i), NowUnixNano: -int64(i)}
		if err := s.Commit(&d, &ServiceState{Seq: uint64(i), NextDev: uint64(i % 11)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	live := s.State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, fullDecode := range []bool{false, true} {
		st, info, err := inspect(dir, replayOptions{fullDecode: fullDecode})
		if err != nil {
			t.Fatal(err)
		}
		if !info.SnapshotLoaded || info.Segments < 2 || info.DecodeFallbacks != 0 || info.Damaged() {
			t.Fatalf("fullDecode=%v: recovery of this build's log: %+v", fullDecode, info)
		}
		if !reflect.DeepEqual(st, live) {
			t.Fatalf("fullDecode=%v: replayed state differs from the live store", fullDecode)
		}
	}

	s, err = Open(Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitNote("marker"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, info, err := Inspect(dir); err != nil || info.DecodeFallbacks != 1 {
		t.Fatalf("after one note record: DecodeFallbacks=%d err=%v, want 1", info.DecodeFallbacks, err)
	}
}
