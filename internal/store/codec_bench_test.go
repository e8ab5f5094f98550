package store

import (
	"encoding/json"
	"fmt"
	"testing"
)

// crashShapedDir writes the directory a durable daemon leaves when it is
// killed: records committed since the last compaction, after a snapshot.
func crashShapedDir(b *testing.B, records int) string {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, NoFsync: true, SnapshotEvery: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		id := i % 64
		d := DeviceState{ID: id, Key: []byte(fmt.Sprintf("pairing-key-%02d-0123456789abcdef", id)),
			GenCounter: uint64(i), VerCounter: uint64(i), NowUnixNano: 1_700_000_000_000_000_000 + int64(i)*1e6,
			RngDraws: uint64(i) * 17_000}
		if err := s.Commit(&d, &ServiceState{Seq: uint64(i + 1), NextDev: uint64(id + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkLoadDir is the log side of a reboot after a crash: snapshot
// load plus replay of the records committed since.
func BenchmarkLoadDir(b *testing.B) {
	dir := crashShapedDir(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadDir(dir, replayOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecord() Record {
	return Record{Seq: 1_234_567, Device: &DeviceState{ID: 42, Key: []byte("pairing-key-42-0123456789abcdef"),
		GenCounter: 98_765, VerCounter: 98_764, VerFailures: 1, GuardState: 2,
		NowUnixNano: 1_700_000_000_123_456_789, RngDraws: 1_679_000_000},
		Service: &ServiceState{Seq: 1_234_567, NextDev: 43}}
}

func BenchmarkRecordEncode(b *testing.B) {
	rec := benchRecord()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendRecordFrame(buf[:0], &rec)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			payload, _ := json.Marshal(&rec)
			buf = appendFrame(buf[:0], recordMagic, payload)
		}
	})
}

func BenchmarkRecordDecode(b *testing.B) {
	rec := benchRecord()
	payload, _ := AppendRecord(nil, &rec)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Record
			if _, err := decodeRecord(payload, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Record
			if err := json.Unmarshal(payload, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
