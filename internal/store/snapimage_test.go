package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The reference snapshot image: a deep copy of the merged state, encoded
// payload first. The store writes its images straight from the merged
// state (snapshotImageLocked); these are what those bytes must equal.

// snapshotPayloadLocked deep-copies the merged state, devices in ID
// order.
func (s *Store) snapshotPayloadLocked() snapshotPayload {
	sp := snapshotPayload{
		LastSeq: s.merged.lastSeq,
		Service: s.merged.service,
	}
	ids := make([]int, 0, len(s.merged.devices))
	for id := range s.merged.devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := s.merged.devices[id]
		c := *d
		c.Key = append([]byte(nil), d.Key...)
		sp.Devices = append(sp.Devices, c)
	}
	return sp
}

// appendSnapshot appends sp's JSON encoding, byte-identical to
// json.Marshal(sp), to dst.
func appendSnapshot(dst []byte, sp *snapshotPayload) []byte {
	dst = append(dst, `{"last_seq":`...)
	dst = strconv.AppendUint(dst, sp.LastSeq, 10)
	dst = append(dst, `,"service":`...)
	dst = appendService(dst, &sp.Service)
	dst = append(dst, `,"devices":`...)
	if sp.Devices == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range sp.Devices {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDevice(dst, &sp.Devices[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// snapshotFrame returns sp as one WLS1 frame in a fresh buffer.
func snapshotFrame(sp *snapshotPayload) []byte {
	return closeFrame(appendSnapshot(openFrame(nil, snapMagic), sp), 0)
}

// randomMerged applies n random records, re-pairings, stale duplicates
// and fleet records among them, to a fresh merged state.
func randomMerged(rng *rand.Rand, n int) *mergedState {
	m := newMergedState()
	for i := 0; i < n; i++ {
		rec := Record{Seq: uint64(rng.Intn(4 * n))}
		if rng.Intn(5) > 0 {
			d := randomDevice(rng)
			d.ID = rng.Intn(1 + n/2)
			rec.Device = &d
		}
		if rng.Intn(3) == 0 {
			rec.Service = &ServiceState{Seq: rng.Uint64() >> uint(rng.Intn(64)), NextDev: rng.Uint64() >> 40}
		}
		m.apply(&rec)
	}
	return m
}

// The image written from the merged state is the reference image byte
// for byte on random states, the empty one included, and the store's
// reused buffers carry nothing from one image into the next.
func TestSnapshotImageMatchesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := &Store{}
	for i := 0; i < 300; i++ {
		s.merged = randomMerged(rng, rng.Intn(80))
		sp := s.snapshotPayloadLocked()
		want := snapshotFrame(&sp)
		if got := s.snapshotImageLocked(); !bytes.Equal(got, want) {
			t.Fatalf("state %d (%d devices): image\n%s\nwant\n%s", i, len(s.merged.devices), got, want)
		}
	}
}

// Compact and Seal write the reference image: the snapshot file, and the
// checkpoint footer that ends a sealed segment.
func TestCompactAndSealWriteReferenceImage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 200; i++ {
		d := randomDevice(rng)
		d.ID = rng.Intn(40)
		if err := s.Commit(&d, &ServiceState{Seq: uint64(i + 1), NextDev: uint64(d.ID)}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	sp := s.snapshotPayloadLocked()
	s.mu.Unlock()
	want := snapshotFrame(&sp)

	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(sealed, want) {
		t.Fatal("sealed segment does not end with the reference checkpoint image")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatal("snapshot file differs from the reference image")
	}
}

// compactStore opens a store holding devices devices' records.
func compactStore(tb testing.TB, devices int) *Store {
	tb.Helper()
	s, err := Open(Options{Dir: tb.TempDir(), NoFsync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	for id := 0; id < devices; id++ {
		d := DeviceState{ID: id, Key: []byte(fmt.Sprintf("pairing-key-%04d-0123456789abcdef", id)),
			GenCounter: uint64(id), VerCounter: uint64(id), NowUnixNano: 1_700_000_000_000_000_000,
			RngDraws: uint64(id) * 17_000}
		if err := s.Commit(&d, &ServiceState{Seq: uint64(id + 1), NextDev: uint64(id + 1)}); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// A warm compaction and a warm seal allocate what their file operations
// do and nothing per device: the image is encoded from the merged state
// into the store's own buffer. The count is the same at 16 and at 1 024
// devices.
func TestCompactSealAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, devices := range []int{16, 1024} {
		s := compactStore(t, devices)
		for _, c := range []struct {
			name    string
			op      func() error
			ceiling int
		}{{"compact", s.Compact, 21}, {"seal", s.Seal, 5}} {
			name, op, ceiling := c.name, c.op, c.ceiling
			run := func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(20, run); allocs > float64(ceiling) {
				t.Errorf("%s at %d devices allocated %.1f objects, ceiling %d", name, devices, allocs, ceiling)
			} else {
				t.Logf("%s at %d devices: %.1f allocations", name, devices, allocs)
			}
		}
	}
}

// BenchmarkCompact is one snapshot rewrite of a 1 024-device store
// (-benchmem shows its allocations, which do not grow with the fleet).
func BenchmarkCompact(b *testing.B) {
	s := compactStore(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
