package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// every CRC-valid frame in file order plus the corruption taxonomy, but
// without the JSON decode (that is replay phase two).
type scanResult struct {
	frames []frameAt
	// corruptions holds the offsets of bit-rot events: complete frames
	// with bad CRCs, or lost framing with valid frames after it. These
	// distrust devices (see loadDir's distrust rule); payloads that
	// fail to decode are added by the caller.
	corruptions []int64
	// tornTailAt is the offset of a benign torn tail — a frame that
	// extends past EOF with nothing valid after it, the expected artifact
	// of a crash mid-append. The frame was never fully written, so it was
	// never fsynced, so it was never acknowledged: truncating it loses
	// nothing durable and distrusts nobody. -1 when the tail is clean.
	//
	// A bit flip landing in the final frame's length field is
	// indistinguishable from a torn write and is classified benign; the
	// CRC protects the payload, not the header. DESIGN.md §11 documents
	// this residual window.
	tornTailAt int64
}

// scanWAL is the phase-one scanner: a sequential CRC/frame walk over a
// WAL image. With checkpoints=false only WLR1 frames are legal (the
// pre-segmentation single-image contract, where snapshot bytes in the
// WAL classify as corruption); with checkpoints=true the WLS1
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

// snapshotPayload is the compacted snapshot body: the full merged state
// at compaction time plus the sequence horizon, which lets replay skip
// WAL records already folded into the snapshot (a crash between the
// snapshot rename and the WAL truncate leaves both populated).
type snapshotPayload struct {
	LastSeq uint64        `json:"last_seq"`
	Service ServiceState  `json:"service"`
	Devices []DeviceState `json:"devices"`
}

// readSnapshot decodes a framed snapshot image into *sp. An error means
// the file is damaged (framing, CRC, or JSON) and must be treated as a
// corruption event that precedes every WAL record; slow is
// decodeSnapshot's.
func readSnapshot(data []byte, sp *snapshotPayload) (slow bool, err error) {
	if len(data) < frameHeaderLen || !bytes.Equal(data[:4], snapMagic) {
		return false, errSnapshotFrame
	}
	length := binary.LittleEndian.Uint32(data[4:])
	if length > MaxRecordSize || frameHeaderLen+int(length) > len(data) {
		return false, errSnapshotFrame
	}
	payload := data[frameHeaderLen : frameHeaderLen+int(length)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[8:]) {
		return false, errSnapshotFrame
	}
	return decodeSnapshot(payload, sp)
}

var errSnapshotFrame = errors.New("store: snapshot frame damaged")
