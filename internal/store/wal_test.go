package store

import (
	"bytes"
	"encoding/json"
	"testing"
)

func buildWAL(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame(recordMagic, payload))
	}
	return buf.Bytes()
}

func devRec(seq uint64, id int, gen, ver uint64) Record {
	return Record{Seq: seq, Device: &DeviceState{ID: id, Key: []byte("k"), GenCounter: gen, VerCounter: ver}}
}

func TestReplayCleanWAL(t *testing.T) {
	data := buildWAL(t, devRec(1, 0, 1, 1), devRec(2, 1, 1, 1), devRec(3, 0, 2, 2))
	res := replayWAL(data)
	if len(res.records) != 3 || len(res.corruptions) != 0 || res.tornTailAt != -1 {
		t.Fatalf("clean replay: %d records, %d corruptions, torn at %d",
			len(res.records), len(res.corruptions), res.tornTailAt)
	}
	for i, want := range []uint64{1, 2, 3} {
		if res.records[i].rec.Seq != want {
			t.Fatalf("record %d has seq %d", i, res.records[i].rec.Seq)
		}
	}
}

func TestReplayTornTailIsBenign(t *testing.T) {
	data := buildWAL(t, devRec(1, 0, 1, 1), devRec(2, 0, 2, 2))
	for cut := len(data) - 1; cut > len(data)-int(res2len(t))+1; cut-- {
		res := replayWAL(data[:cut])
		if len(res.records) != 1 {
			t.Fatalf("cut %d: recovered %d records", cut, len(res.records))
		}
		if len(res.corruptions) != 0 {
			t.Fatalf("cut %d: torn tail reported as corruption", cut)
		}
		if res.tornTailAt < 0 {
			t.Fatalf("cut %d: torn tail not detected", cut)
		}
	}
}

// res2len is the framed size of the second record above.
func res2len(t *testing.T) int64 {
	t.Helper()
	data := buildWAL(t, devRec(2, 0, 2, 2))
	return int64(len(data))
}

func TestReplayBitRotDistrusts(t *testing.T) {
	data := buildWAL(t, devRec(1, 0, 1, 1), devRec(2, 1, 1, 1), devRec(3, 0, 2, 2))
	res := replayWAL(data)
	// Flip a payload bit in the middle record.
	mid := res.records[1]
	data[mid.off+frameHeaderLen+4] ^= 0x10
	rot := replayWAL(data)
	if len(rot.records) != 2 {
		t.Fatalf("recovered %d records around the rot", len(rot.records))
	}
	if rot.records[0].rec.Seq != 1 || rot.records[1].rec.Seq != 3 {
		t.Fatalf("wrong records survived: %d, %d", rot.records[0].rec.Seq, rot.records[1].rec.Seq)
	}
	if len(rot.corruptions) != 1 || rot.corruptions[0] != mid.off {
		t.Fatalf("corruptions = %v, want [%d]", rot.corruptions, mid.off)
	}
	if rot.tornTailAt != -1 {
		t.Fatal("bit rot misclassified as torn tail")
	}
}

func TestReplayCompleteTailRecordWithBadCRCIsCorruption(t *testing.T) {
	data := buildWAL(t, devRec(1, 0, 1, 1), devRec(2, 0, 2, 2))
	res := replayWAL(data)
	last := res.records[1]
	data[last.off+frameHeaderLen] ^= 0x01
	rot := replayWAL(data)
	if len(rot.records) != 1 || len(rot.corruptions) != 1 {
		t.Fatalf("records=%d corruptions=%d", len(rot.records), len(rot.corruptions))
	}
	if rot.tornTailAt != -1 {
		t.Fatal("complete bad-CRC record misclassified as torn tail")
	}
}

func TestReplayLostFramingResyncs(t *testing.T) {
	data := buildWAL(t, devRec(1, 0, 1, 1), devRec(2, 0, 2, 2))
	// Smash the first record's magic: framing is lost until the second
	// record's magic.
	copy(data[0:4], []byte("XXXX"))
	res := replayWAL(data)
	if len(res.records) != 1 || res.records[0].rec.Seq != 2 {
		t.Fatalf("resync recovered %d records", len(res.records))
	}
	if len(res.corruptions) != 1 {
		t.Fatalf("corruptions = %v", res.corruptions)
	}
}

func TestReplayEmptyAndGarbage(t *testing.T) {
	if res := replayWAL(nil); len(res.records) != 0 || len(res.corruptions) != 0 || res.tornTailAt != -1 {
		t.Fatalf("empty WAL: %+v", res)
	}
	res := replayWAL([]byte("not a wal at all, just bytes"))
	if len(res.records) != 0 {
		t.Fatal("recovered records from garbage")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sp := snapshotPayload{
		LastSeq: 9,
		Service: ServiceState{Seq: 41, NextDev: 3},
		Devices: []DeviceState{{ID: 0, Key: []byte("k0"), GenCounter: 7, VerCounter: 7}},
	}
	payload, err := json.Marshal(&sp)
	if err != nil {
		t.Fatal(err)
	}
	img := frame(snapMagic, payload)
	var got snapshotPayload
	_, err = readSnapshot(img, &got)
	if err != nil || got.LastSeq != 9 || len(got.Devices) != 1 || got.Service.Seq != 41 {
		t.Fatalf("round trip: err=%v got=%+v", err, got)
	}
	// Any damage must fail decode, never panic.
	for i := 0; i < len(img); i += 7 {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x40
		readSnapshot(bad, new(snapshotPayload))
	}
	if _, err := readSnapshot(img[:len(img)-2], new(snapshotPayload)); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
	if _, err := readSnapshot(frame(recordMagic, payload), new(snapshotPayload)); err == nil {
		t.Fatal("record magic accepted as snapshot")
	}
}

func TestMergeMonotoneUnderDuplication(t *testing.T) {
	m := newMergedState()
	newer := devRec(5, 0, 9, 9)
	older := devRec(2, 0, 3, 3)
	older.Device.VerFailures = 2
	m.apply(&newer)
	m.apply(&older) // duplicated stale record replayed late
	d := m.devices[0]
	if d.GenCounter != 9 || d.VerCounter != 9 {
		t.Fatalf("stale duplicate regressed counters: %+v", d)
	}
	if d.VerFailures != 0 {
		t.Fatal("stale duplicate overwrote newer discrete fields")
	}
	// A stale record must not resurrect a retired pairing key either.
	repaired := Record{Seq: 6, Device: &DeviceState{ID: 0, Key: []byte("new"), GenCounter: 0}}
	m.apply(&repaired)
	staleOldKey := devRec(3, 0, 4, 4)
	m.apply(&staleOldKey)
	if !bytes.Equal(m.devices[0].Key, []byte("new")) {
		t.Fatal("stale record resurrected the old pairing key")
	}
}
