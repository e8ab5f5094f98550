package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, dir string, snapshotEvery int) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, NoFsync: true, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func commitDev(t *testing.T, s *Store, id int, gen, ver uint64) {
	t.Helper()
	if err := s.CommitDevice(DeviceState{ID: id, Key: []byte("key"), GenCounter: gen, VerCounter: ver}); err != nil {
		t.Fatal(err)
	}
}

// activeWAL returns the path of the active (last) WAL file.
func activeWAL(t *testing.T, dir string) string {
	t.Helper()
	paths, err := WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no WAL files")
	}
	return paths[len(paths)-1]
}

func TestCommitReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 1, 1)
	commitDev(t, s, 1, 1, 1)
	commitDev(t, s, 0, 2, 2)
	if err := s.CommitService(ServiceState{Seq: 3, NextDev: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if info.RecoveredRecords != 4 || info.Corruptions != 0 || info.TornTail || len(info.Distrusted) != 0 {
		t.Fatalf("clean reopen: %+v", info)
	}
	st := s2.State()
	if d := st.Devices[0]; d.GenCounter != 2 || d.VerCounter != 2 {
		t.Fatalf("device 0 = %+v", d)
	}
	if d := st.Devices[1]; d.GenCounter != 1 {
		t.Fatalf("device 1 = %+v", d)
	}
	if st.Service.Seq != 3 || st.Service.NextDev != 2 {
		t.Fatalf("service = %+v", st.Service)
	}
}

func TestAutoCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4)
	for i := uint64(1); i <= 10; i++ {
		commitDev(t, s, 0, i, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 10 commits with SnapshotEvery=4: two compactions happened, the WAL
	// holds only the post-snapshot suffix.
	if fi, err := os.Stat(filepath.Join(dir, SnapshotFileName)); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot missing after auto-compaction: %v", err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if !info.SnapshotLoaded {
		t.Fatalf("snapshot not loaded: %+v", info)
	}
	if info.RecoveredRecords >= 10 {
		t.Fatalf("WAL was not truncated by compaction: %d records", info.RecoveredRecords)
	}
	if d, ok := s2.Device(0); !ok || d.GenCounter != 10 {
		t.Fatalf("device after compacted reopen: %+v ok=%v", d, ok)
	}
}

// A crash between the snapshot rename and the WAL truncate leaves a
// fresh snapshot plus the full pre-compaction WAL. Replay must skip the
// already-folded records and land on the identical state.
func TestCrashBetweenRenameAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 5, 5)
	commitDev(t, s, 1, 2, 2)
	walPath := activeWAL(t, dir)
	walBefore, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncate: put the pre-compaction WAL back.
	if err := os.WriteFile(walPath, walBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if !info.SnapshotLoaded || len(info.Distrusted) != 0 || info.Corruptions != 0 {
		t.Fatalf("rename+noTruncate reopen: %+v", info)
	}
	st := s2.State()
	if st.Devices[0].GenCounter != 5 || st.Devices[1].GenCounter != 2 {
		t.Fatalf("state diverged: %+v", st.Devices)
	}
	// New commits must start above the snapshot horizon even though the
	// stale WAL records share its sequence space.
	commitDev(t, s2, 0, 6, 6)
	if d, _ := s2.Device(0); d.GenCounter != 6 {
		t.Fatalf("post-recovery commit lost: %+v", d)
	}
}

func TestDropLastRecordLosesOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 1, 1)
	commitDev(t, s, 0, 2, 2)
	s.Close()
	dropped, err := MangleDropLastRecord(dir)
	if err != nil || !dropped {
		t.Fatalf("drop: %v %v", dropped, err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if len(info.Distrusted) != 0 {
		t.Fatalf("clean truncation distrusted devices: %+v", info)
	}
	if d, _ := s2.Device(0); d.GenCounter != 1 {
		t.Fatalf("device after drop: %+v", d)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 1, 1)
	commitDev(t, s, 0, 2, 2)
	s.Close()
	torn, err := MangleTornTail(dir, 7)
	if err != nil || !torn {
		t.Fatalf("tear: %v %v", torn, err)
	}
	s2 := openTest(t, dir, 0)
	info := s2.Recovery()
	if !info.TornTail || info.Corruptions != 0 || len(info.Distrusted) != 0 {
		t.Fatalf("torn reopen: %+v", info)
	}
	if d, _ := s2.Device(0); d.GenCounter != 1 {
		t.Fatalf("device after tear: %+v", d)
	}
	// The tail was truncated: appends must land cleanly.
	commitDev(t, s2, 0, 3, 3)
	s2.Close()
	s3 := openTest(t, dir, 0)
	defer s3.Close()
	if info := s3.Recovery(); info.Corruptions != 0 || info.TornTail {
		t.Fatalf("append after truncation left damage: %+v", info)
	}
	if d, _ := s3.Device(0); d.GenCounter != 3 {
		t.Fatalf("device after append: %+v", d)
	}
}

func TestBitFlipDistrustsOnlyStaleDevices(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 1, 1)
	commitDev(t, s, 1, 1, 1)
	commitDev(t, s, 0, 2, 2) // this record gets the bit flip
	commitDev(t, s, 1, 2, 2) // device 1 re-proves itself after the rot point
	s.Close()

	// Flip a bit in device 0's second record specifically: its merged
	// counter silently regresses to 1, which is exactly what distrust
	// must catch.
	walPath := activeWAL(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	res := replayWAL(data)
	data[res.records[2].off+frameHeaderLen+3] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 0)
	info := s2.Recovery()
	if info.Corruptions != 1 {
		t.Fatalf("corruptions = %d", info.Corruptions)
	}
	if len(info.Distrusted) != 1 || info.Distrusted[0] != 0 {
		t.Fatalf("distrusted = %v, want [0]", info.Distrusted)
	}
	if d, _ := s2.Device(1); d.GenCounter != 2 {
		t.Fatalf("trusted device regressed: %+v", d)
	}

	// The service repairs device 0 (fresh key) and compacts; the next
	// open must be clean and trust everyone.
	if err := s2.CommitDevice(DeviceState{ID: 0, Key: []byte("fresh"), GenCounter: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir, 0)
	defer s3.Close()
	if info := s3.Recovery(); info.Corruptions != 0 || len(info.Distrusted) != 0 {
		t.Fatalf("post-repair reopen still damaged: %+v", info)
	}
	if d, _ := s3.Device(0); !bytes.Equal(d.Key, []byte("fresh")) {
		t.Fatalf("repair did not stick: %+v", d)
	}
}

// Corruption evidence must survive a crash that happens after recovery
// but before the service finishes repairing: the WAL keeps the damaged
// region until Compact, so a second recovery re-distrusts the device.
func TestDistrustEvidenceSurvivesSecondCrash(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 3, 3)
	commitDev(t, s, 0, 4, 4)
	commitDev(t, s, 1, 1, 1)
	s.Close()

	walPath := activeWAL(t, dir)
	data, _ := os.ReadFile(walPath)
	res := replayWAL(data)
	data[res.records[1].off+frameHeaderLen+2] ^= 0x08
	os.WriteFile(walPath, data, 0o644)

	s2 := openTest(t, dir, 0)
	if got := s2.Recovery().Distrusted; len(got) != 1 || got[0] != 0 {
		t.Fatalf("first recovery distrusted %v", got)
	}
	// Crash here: no repair, no compact.
	s2.Close()
	s3 := openTest(t, dir, 0)
	defer s3.Close()
	if got := s3.Recovery().Distrusted; len(got) != 1 || got[0] != 0 {
		t.Fatalf("second recovery lost the distrust evidence: %v", got)
	}
}

func TestSnapshotOnlyDistrustsAll(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 3, 3)
	commitDev(t, s, 1, 5, 5)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	commitDev(t, s, 0, 4, 4)
	s.Close()
	removed, err := MangleSnapshotOnly(dir)
	if err != nil || !removed {
		t.Fatalf("snapshot-only mangle: %v %v", removed, err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if !info.WALMissing {
		t.Fatalf("missing WAL not detected: %+v", info)
	}
	if len(info.Distrusted) != 2 {
		t.Fatalf("distrusted = %v, want both devices", info.Distrusted)
	}
}

func TestCorruptSnapshotDegradesWithoutPanic(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	commitDev(t, s, 0, 3, 3)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	commitDev(t, s, 1, 1, 1)
	s.Close()
	snapPath := filepath.Join(dir, SnapshotFileName)
	data, _ := os.ReadFile(snapPath)
	data[len(data)/2] ^= 0xff
	os.WriteFile(snapPath, data, 0o644)

	s2 := openTest(t, dir, 0)
	defer s2.Close()
	info := s2.Recovery()
	if info.SnapshotLoaded || !info.SnapshotCorrupt || info.Corruptions == 0 {
		t.Fatalf("corrupt snapshot reopen: %+v", info)
	}
	// Device 0 lived only in the snapshot: it comes back unpaired (the
	// re-pair path). Device 1's WAL record survives.
	if _, ok := s2.Device(0); ok {
		t.Fatal("device 0 resurrected from a corrupt snapshot")
	}
	if d, ok := s2.Device(1); !ok || d.GenCounter != 1 {
		t.Fatalf("device 1 = %+v ok=%v", d, ok)
	}
}

func TestMangleDeterminism(t *testing.T) {
	build := func() string {
		dir := t.TempDir()
		s := openTest(t, dir, 0)
		for i := uint64(1); i <= 5; i++ {
			commitDev(t, s, int(i%2), i, i)
		}
		s.Close()
		return dir
	}
	dirA, dirB := build(), build()
	if _, err := MangleFlipBit(dirA, 1234); err != nil {
		t.Fatal(err)
	}
	if _, err := MangleFlipBit(dirB, 1234); err != nil {
		t.Fatal(err)
	}
	concat := func(dir string) []byte {
		paths, err := WALFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, data...)
		}
		return all
	}
	if !bytes.Equal(concat(dirA), concat(dirB)) {
		t.Fatal("same seed produced different mangles")
	}
}

func TestFsyncCommitPath(t *testing.T) {
	// One store with real fsync, to cover the sync branches.
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		commitDev(t, s, 0, i, i)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
	if err := s.CommitDevice(DeviceState{ID: 0, Key: []byte("k")}); err == nil {
		t.Fatal("commit on closed store succeeded")
	}
}

// DeviceInto copies a device's merged state into the caller's record,
// key bytes into the caller's key storage, so the record never aliases
// the merged state; a device the store does not hold leaves it as it
// was.
func TestDeviceIntoCopiesIntoCallerStorage(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CommitDevice(DeviceState{ID: 3, Key: []byte("k3k3"), GenCounter: 9, RngDraws: 41}); err != nil {
		t.Fatal(err)
	}
	storage := make([]byte, 0, 16)
	dst := DeviceState{ID: 99, Key: storage}
	if !s.DeviceInto(3, &dst) {
		t.Fatal("device 3 not found")
	}
	if dst.ID != 3 || string(dst.Key) != "k3k3" || dst.GenCounter != 9 || dst.RngDraws != 41 {
		t.Fatalf("DeviceInto = %+v", dst)
	}
	if &dst.Key[:1][0] != &storage[:1][0] {
		t.Error("the key was not read into the caller's storage")
	}
	dst.Key[0] = 'X'
	if d, _ := s.Device(3); string(d.Key) != "k3k3" {
		t.Fatalf("writing the caller's key reached the merged state: %q", d.Key)
	}
	before := dst
	if s.DeviceInto(4, &dst) || dst.ID != before.ID || string(dst.Key) != string(before.Key) {
		t.Fatalf("a missing device changed the record: %+v", dst)
	}
}
