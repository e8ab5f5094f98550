package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sync"
	"testing"
)

// frameReference is the framing body as first written: one exact-size
// buffer, header fields stored in place. appendFrame must reproduce it
// byte for byte.
func frameReference(magic, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

func TestAppendFrameMatchesReferenceLayout(t *testing.T) {
	rec := devRec(9, 3, 41, 40)
	recPayload, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint footer and the snapshot file carry the same payload
	// type under the same WLS1 magic.
	snapPayload, err := json.Marshal(&snapshotPayload{
		LastSeq: 9,
		Service: ServiceState{Seq: 41, NextDev: 3},
		Devices: []DeviceState{{ID: 0, Key: []byte("k0"), GenCounter: 7, VerCounter: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		magic, payload []byte
	}{
		{"record", recordMagic, recPayload},
		{"checkpoint-footer", snapMagic, snapPayload},
		{"snapshot", snapMagic, []byte("{}")},
		{"empty-payload", recordMagic, nil},
	}
	for _, tc := range cases {
		want := frameReference(tc.magic, tc.payload)
		if got := frame(tc.magic, tc.payload); !bytes.Equal(got, want) {
			t.Errorf("%s: frame = %x, want %x", tc.name, got, want)
		}
		// Appending after existing bytes, into spare capacity and into a
		// buffer too small to hold the frame must all leave the prefix
		// intact and add exactly the reference frame.
		for _, dst := range [][]byte{
			[]byte("prefix"),
			append(make([]byte, 0, 4096), "prefix"...),
			append(make([]byte, 0, 7), "prefix"...),
		} {
			got := appendFrame(dst, tc.magic, tc.payload)
			if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
				t.Errorf("%s: appendFrame after %d-byte-capacity prefix = %x, want prefix + %x", tc.name, cap(dst), got, want)
			}
		}
	}
}

// The committer reuses one framing buffer across batches. Batches of
// shrinking and growing sizes, with records of different lengths, must
// leave exactly the reference frames on disk and replay to the state the
// live store held.
func TestReusedBatchBufferReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var batches []int
	s, err := Open(Options{Dir: dir, NoFsync: true, OnCommitBatch: func(n int) {
		mu.Lock()
		batches = append(batches, n)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	seq := uint64(0)
	for _, size := range []int{32, 1, 7, 16, 2, 40, 3} {
		handles := make([]*CommitHandle, size)
		for i := range handles {
			seq++
			d := DeviceState{ID: int(seq % 6), Key: bytes.Repeat([]byte("k"), int(seq%9)+1), GenCounter: seq, VerCounter: seq}
			handles[i] = s.CommitDeviceAsync(d)
			payload, err := json.Marshal(&Record{Seq: seq, Device: &d})
			if err != nil {
				t.Fatal(err)
			}
			want.Write(frameReference(recordMagic, payload))
		}
		for i, h := range handles {
			if err := h.Wait(); err != nil {
				t.Fatalf("batch of %d, commit %d: %v", size, i, err)
			}
		}
	}
	live := s.State()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	nBatches := len(batches)
	mu.Unlock()
	if nBatches < 7 {
		t.Fatalf("%d commit batches, want at least one per group", nBatches)
	}

	paths, err := WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, data...)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("WAL bytes differ from reference framing (%d vs %d bytes)", len(got), want.Len())
	}

	replayed, info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Corruptions != 0 || info.TornTail || len(info.Distrusted) != 0 {
		t.Fatalf("clean multi-batch WAL reported damage: %+v", info)
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Fatalf("replayed state differs from the live store:\n%s\n%s", fmt.Sprint(replayed), fmt.Sprint(live))
	}
}
