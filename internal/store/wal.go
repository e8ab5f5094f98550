package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"slices"
)

// WAL framing: every record is
//
//	magic "WLR1" | u32 LE payload length | u32 LE CRC32C(payload) | payload
//
// The CRC is Castagnoli (the polynomial with hardware support on both
// amd64 and arm64). The snapshot file uses the same frame with its own
// magic, so a snapshot misplaced into the WAL cannot masquerade as a
// record.
const (
	frameHeaderLen = 12
	// MaxRecordSize bounds a single record. A length field above this is
	// framing damage, not a real record: device records are a few hundred
	// bytes of JSON.
	MaxRecordSize = 1 << 20
)

var (
	recordMagic = []byte("WLR1")
	snapMagic   = []byte("WLS1")
	castagnoli  = crc32.MakeTable(crc32.Castagnoli)
)

// appendFrame appends payload in the on-disk framing to dst, growing it
// at most once.
func appendFrame(dst, magic, payload []byte) []byte {
	dst = slices.Grow(dst, frameHeaderLen+len(payload))
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// frame returns payload in the on-disk framing as a fresh buffer.
func frame(magic, payload []byte) []byte { return appendFrame(nil, magic, payload) }

// recordAt is one valid record with its file extent.
type recordAt struct {
	off int64
	end int64
	rec Record
}

// frameKind distinguishes the two frame types sharing the WAL byte
// stream: ordinary records (WLR1) and checkpoint footers (WLS1) — full
// merged-state snapshots the committer embeds when sealing a segment so
// replay can skip decoding everything before them.
type frameKind uint8

const (
	frameRecord frameKind = iota
	frameCheckpoint
)

// frameAt is one CRC-valid frame with its extent; the payload aliases
// the scanned image and has not been JSON-decoded yet.
type frameAt struct {
	kind    frameKind
	off     int64
	end     int64
	payload []byte
}

// scanResult is the frame-level outcome of scanning one WAL image:
// every CRC-valid frame in file order plus the corruption taxonomy of
// replayResult, but without the JSON decode (that is replay phase two).
type scanResult struct {
	frames      []frameAt
	corruptions []int64
	tornTailAt  int64
}

// scanWAL is the phase-one scanner: a sequential CRC/frame walk over a
// WAL image. With checkpoints=false only WLR1 frames are legal (the
// pre-segmentation contract replayWAL preserves, where snapshot bytes in
// the WAL classify as corruption); with checkpoints=true the WLS1
// checkpoint footers written at segment seals are recognized as frames
// in their own right.
func scanWAL(data []byte, checkpoints bool) scanResult {
	res := scanResult{tornTailAt: -1}
	n := len(data)
	kindAt := func(off int) (frameKind, bool) {
		if bytes.Equal(data[off:off+4], recordMagic) {
			return frameRecord, true
		}
		if checkpoints && bytes.Equal(data[off:off+4], snapMagic) {
			return frameCheckpoint, true
		}
		return 0, false
	}
	resync := func(from int) int {
		idx := bytes.Index(data[from:], recordMagic)
		if checkpoints {
			if j := bytes.Index(data[from:], snapMagic); j >= 0 && (idx < 0 || j < idx) {
				idx = j
			}
		}
		if idx < 0 {
			return -1
		}
		return from + idx
	}
	off := 0
	for off < n {
		if n-off < frameHeaderLen {
			res.tornTailAt = int64(off)
			break
		}
		kind, ok := kindAt(off)
		if !ok {
			next := resync(off + 1)
			if next < 0 {
				// Garbage to EOF with no recoverable frame after it: the
				// torn-tail shape.
				res.tornTailAt = int64(off)
				break
			}
			res.corruptions = append(res.corruptions, int64(off))
			off = next
			continue
		}
		length := binary.LittleEndian.Uint32(data[off+4:])
		if length > MaxRecordSize {
			next := resync(off + 1)
			if next < 0 {
				res.tornTailAt = int64(off)
				break
			}
			res.corruptions = append(res.corruptions, int64(off))
			off = next
			continue
		}
		end := off + frameHeaderLen + int(length)
		if end > n {
			// Frame extends past EOF. If a valid magic lies beyond this
			// header the "tail" is actually mid-file damage.
			next := resync(off + 1)
			if next < 0 {
				res.tornTailAt = int64(off)
				break
			}
			res.corruptions = append(res.corruptions, int64(off))
			off = next
			continue
		}
		payload := data[off+frameHeaderLen : end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+8:]) {
			// A complete frame with a bad CRC is bit-rot, never a torn
			// write: torn writes end the file.
			res.corruptions = append(res.corruptions, int64(off))
			if end+len(recordMagic) <= n {
				if _, ok := kindAt(end); ok {
					off = end
					continue
				}
			}
			if next := resync(off + 1); next >= 0 {
				off = next
			} else {
				off = n
			}
			continue
		}
		res.frames = append(res.frames, frameAt{kind: kind, off: int64(off), end: int64(end), payload: payload})
		off = end
	}
	return res
}

// replayResult is the outcome of scanning a WAL image.
type replayResult struct {
	records []recordAt
	// corruptions holds the offsets of bit-rot events: complete records
	// with bad CRCs, lost framing with valid records after it, or valid
	// CRCs over unparseable payloads. These distrust devices (see
	// distrustAfter).
	corruptions []int64
	// tornTailAt is the offset of a benign torn tail — a record that
	// extends past EOF with nothing valid after it, the expected artifact
	// of a crash mid-append. The record was never fully written, so it was
	// never fsynced, so it was never acknowledged: truncating it loses
	// nothing durable and distrusts nobody. -1 when the tail is clean.
	//
	// A bit flip landing in the final record's length field is
	// indistinguishable from a torn write and is classified benign; the
	// CRC protects the payload, not the header. DESIGN.md §11 documents
	// this residual window.
	tornTailAt int64
}

// replayWAL scans a WAL image, returning every recoverable record in file
// order plus the corruption taxonomy. It never fails: arbitrary damage
// degrades to fewer records and more corruption events. This is the
// single-image contract (checkpoint footers are not legal frames here);
// segmented recovery goes through loadDir, which scans and decodes in
// two phases.
func replayWAL(data []byte) replayResult {
	sc := scanWAL(data, false)
	res := replayResult{tornTailAt: sc.tornTailAt}
	// Interleave frame-level corruption events with JSON-decode failures
	// so the list stays in file-offset order, exactly as the single-pass
	// scanner produced it.
	ci := 0
	for _, f := range sc.frames {
		for ci < len(sc.corruptions) && sc.corruptions[ci] < f.off {
			res.corruptions = append(res.corruptions, sc.corruptions[ci])
			ci++
		}
		var rec Record
		if err := json.Unmarshal(f.payload, &rec); err != nil {
			res.corruptions = append(res.corruptions, f.off)
			continue
		}
		res.records = append(res.records, recordAt{off: f.off, end: f.end, rec: rec})
	}
	res.corruptions = append(res.corruptions, sc.corruptions[ci:]...)
	return res
}

// lastCorruption returns the offset of the final corruption event, or -1.
func (r replayResult) lastCorruption() int64 {
	if len(r.corruptions) == 0 {
		return -1
	}
	return r.corruptions[len(r.corruptions)-1]
}

// snapshotPayload is the compacted snapshot body: the full merged state
// at compaction time plus the sequence horizon, which lets replay skip
// WAL records already folded into the snapshot (a crash between the
// snapshot rename and the WAL truncate leaves both populated).
type snapshotPayload struct {
	LastSeq uint64        `json:"last_seq"`
	Service ServiceState  `json:"service"`
	Devices []DeviceState `json:"devices"`
}

// decodeSnapshot parses a snapshot image. ok=false means the file is
// damaged (framing, CRC, or JSON) and must be treated as a corruption
// event that precedes every WAL record.
func decodeSnapshot(data []byte) (snapshotPayload, bool) {
	var sp snapshotPayload
	if len(data) < frameHeaderLen || !bytes.Equal(data[:4], snapMagic) {
		return sp, false
	}
	length := binary.LittleEndian.Uint32(data[4:])
	if length > MaxRecordSize || frameHeaderLen+int(length) > len(data) {
		return sp, false
	}
	payload := data[frameHeaderLen : frameHeaderLen+int(length)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[8:]) {
		return sp, false
	}
	if err := json.Unmarshal(payload, &sp); err != nil {
		return sp, false
	}
	return sp, true
}
