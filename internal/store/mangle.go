package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Mangle helpers emulate disk-level damage on a CLOSED store directory —
// the on-disk shadow of the fault schedule's store kinds. kill -9 alone
// cannot lose OS-buffered writes, so the restart-chaos harness applies
// these between kill and restart to model the crash modes fsync exists
// for. All helpers are deterministic in (directory contents, seed) and
// segment-aware: the WAL may be one legacy wal.log or many wal.NNNNN
// files, and "the last record" means the last record across the whole
// replay order.

// mangleRand is a tiny splitmix64 so mangle choices are deterministic
// without importing math/rand here.
func mangleRand(seed int64) func(n int) int {
	x := uint64(seed) ^ 0x6d616e676c65 // "mangle"
	return func(n int) int {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if n <= 0 {
			return 0
		}
		return int(z % uint64(n))
	}
}

// walImage is one WAL file's bytes plus its valid record extents
// (file-local offsets; checkpoint footers excluded — mangles target
// records, the unit the fault model is defined over).
type walImage struct {
	seg     segFile
	data    []byte
	records []recordAt
}

// readWALImages loads every WAL file in replay order. ok=false means the
// directory has no WAL files at all (nothing to mangle).
func readWALImages(dir string) ([]walImage, bool, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, false, err
	}
	if len(segs) == 0 {
		return nil, false, nil
	}
	imgs := make([]walImage, 0, len(segs))
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, false, fmt.Errorf("store: reading WAL for mangle: %w", err)
		}
		img := walImage{seg: seg, data: data}
		for _, f := range scanWAL(data, true).frames {
			if f.kind != frameRecord {
				continue
			}
			var rec Record
			if _, err := decodeRecord(f.payload, &rec); err != nil {
				continue
			}
			img.records = append(img.records, recordAt{off: f.off, end: f.end, rec: rec})
		}
		imgs = append(imgs, img)
	}
	return imgs, len(imgs) > 0, nil
}

// lastWithRecords returns the index of the last image holding at least
// one record, or -1.
func lastWithRecords(imgs []walImage) int {
	for i := len(imgs) - 1; i >= 0; i-- {
		if len(imgs[i].records) > 0 {
			return i
		}
	}
	return -1
}

// dropTail truncates imgs[i] at off and removes every later WAL file —
// the shape a real crash-before-flush leaves: nothing newer than the cut
// point survives anywhere.
func dropTail(imgs []walImage, i int, off int64) error {
	if err := os.Truncate(imgs[i].seg.path, off); err != nil {
		return fmt.Errorf("store: truncating WAL for mangle: %w", err)
	}
	for j := i + 1; j < len(imgs); j++ {
		if err := os.Remove(imgs[j].seg.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: removing WAL tail segment: %w", err)
		}
	}
	return nil
}

// MangleDropLastRecord truncates the WAL just before its final valid
// record — the crash-before-fsync fault: the last commit's bytes never
// reached the platter. Returns true when a record was dropped.
func MangleDropLastRecord(dir string) (bool, error) {
	imgs, ok, err := readWALImages(dir)
	if err != nil || !ok {
		return false, err
	}
	i := lastWithRecords(imgs)
	if i < 0 {
		return false, nil
	}
	last := imgs[i].records[len(imgs[i].records)-1]
	if err := dropTail(imgs, i, last.off); err != nil {
		return false, err
	}
	return true, nil
}

// MangleTornTail cuts the WAL mid-way through its final record — the
// torn-write fault: power died with the append half flushed. The cut
// point inside the record is seed-chosen. Returns true when a tear was
// applied.
func MangleTornTail(dir string, seed int64) (bool, error) {
	imgs, ok, err := readWALImages(dir)
	if err != nil || !ok {
		return false, err
	}
	i := lastWithRecords(imgs)
	if i < 0 {
		return false, nil
	}
	last := imgs[i].records[len(imgs[i].records)-1]
	span := int(last.end - last.off)
	// Cut somewhere strictly inside the frame: at least 1 byte written,
	// at least 1 byte missing.
	cut := last.off + 1 + int64(mangleRand(seed)(span-1))
	if err := dropTail(imgs, i, cut); err != nil {
		return false, err
	}
	return true, nil
}

// MangleFlipBit flips one seed-chosen bit inside the payload of one
// seed-chosen complete record (drawn uniformly across all segments) —
// the bit-rot fault. Payload bytes (never the header) are targeted so
// the damage always classifies as a CRC failure on a complete record,
// which is the distrust path. Returns true when a bit was flipped.
func MangleFlipBit(dir string, seed int64) (bool, error) {
	imgs, ok, err := readWALImages(dir)
	if err != nil || !ok {
		return false, err
	}
	total := 0
	for i := range imgs {
		total += len(imgs[i].records)
	}
	if total == 0 {
		return false, nil
	}
	r := mangleRand(seed)
	pick := r(total)
	for i := range imgs {
		if pick >= len(imgs[i].records) {
			pick -= len(imgs[i].records)
			continue
		}
		rec := imgs[i].records[pick]
		payloadLen := int(rec.end-rec.off) - frameHeaderLen
		if payloadLen <= 0 {
			return false, nil
		}
		pos := rec.off + frameHeaderLen + int64(r(payloadLen))
		imgs[i].data[pos] ^= 1 << uint(r(8))
		if err := os.WriteFile(imgs[i].seg.path, imgs[i].data, 0o644); err != nil {
			return false, fmt.Errorf("store: flipping bit: %w", err)
		}
		return true, nil
	}
	return false, nil
}

// MangleSnapshotOnly deletes every WAL file, leaving only the snapshot —
// the stale-snapshot fault (state rolled back to the last compaction,
// newer evidence gone). Recovery must distrust every device. Returns
// true when at least one WAL file was removed alongside an existing
// snapshot.
func MangleSnapshotOnly(dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, SnapshotFileName)); err != nil {
		// No snapshot: deleting the WAL would model total loss, not
		// rollback; skip so the fault stays the one scheduled.
		return false, nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return false, err
	}
	removed := false
	for _, seg := range segs {
		err := os.Remove(seg.path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return removed, fmt.Errorf("store: removing WAL: %w", err)
		}
		removed = true
	}
	return removed, nil
}

// MangleDropSegment removes one seed-chosen interior sealed segment —
// the vanished-history fault only a segmented log can suffer. Interior
// means neither the first WAL file nor the last: dropping the first
// could be masked by a snapshot covering it (silent rollback, which is
// MangleSnapshotOnly's job), and dropping the active segment is
// MangleDropLastRecord's. An interior hole is always detected by replay
// as a corruption event at the following segment's base. Returns true
// when a segment was removed; directories with fewer than three WAL
// files have no interior and return false.
func MangleDropSegment(dir string, seed int64) (bool, error) {
	imgs, ok, err := readWALImages(dir)
	if err != nil || !ok || len(imgs) < 3 {
		return false, err
	}
	interior := imgs[1 : len(imgs)-1]
	// Prefer a segment that actually holds records so the fault always
	// destroys evidence; fall back to any interior segment.
	var candidates []walImage
	for _, img := range interior {
		if len(img.records) > 0 {
			candidates = append(candidates, img)
		}
	}
	if len(candidates) == 0 {
		candidates = interior
	}
	pick := candidates[mangleRand(seed)(len(candidates))]
	if err := os.Remove(pick.seg.path); err != nil {
		return false, fmt.Errorf("store: dropping segment: %w", err)
	}
	return true, nil
}
