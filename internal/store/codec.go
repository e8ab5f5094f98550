package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"

	"wearlock/internal/canonjson"
)

// The record codec (DESIGN.md §15.3). WAL records, checkpoint footers
// and the snapshot file are JSON in the canonical layout (package
// canonjson) json.Marshal writes for Record and snapshotPayload. The
// encoder writes that layout without reflection; the decoder reads it
// without reflection and hands every other input — whitespace,
// reordered or case-variant keys, duplicates, escapes, a non-empty note,
// overflow, leading zeros, trailing bytes — to json.Unmarshal. The set
// of payloads accepted and every decoded value are therefore
// encoding/json's, and FuzzRecordCodec holds the two to that.

// AppendRecord appends rec's JSON encoding, byte-identical to
// json.Marshal(rec), to dst. Records carrying a note take json.Marshal
// itself: notes are free text and need its escaping rules.
func AppendRecord(dst []byte, rec *Record) ([]byte, error) {
	if rec.Note != "" {
		b, err := json.Marshal(rec)
		return append(dst, b...), err
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	if rec.Device != nil {
		dst = append(dst, `,"device":`...)
		dst = appendDevice(dst, rec.Device)
	}
	if rec.Service != nil {
		dst = append(dst, `,"service":`...)
		dst = appendService(dst, rec.Service)
	}
	return append(dst, '}'), nil
}

// ReadRecord reads one record in the canonical layout AppendRecord
// writes into *rec. Every field is overwritten; a non-nil Device or
// Service rec holds on entry is storage the record reuses (its key bytes
// included), so a caller decoding message after message into the same
// records allocates nothing once they have grown. A record that leaves
// the layout — one with a note included — fails c and leaves *rec
// partly filled; it never falls back on its own, so a caller decoding a
// larger message can hand the whole message to its strict decoder.
func ReadRecord(c *canonjson.Reader, rec *Record) {
	dev, sv := rec.Device, rec.Service
	*rec = Record{}
	c.Lit(`{"seq":`)
	rec.Seq = c.Uint()
	if c.Next(`,"device":`) {
		if dev == nil {
			dev = new(DeviceState)
		}
		readDevice(c, dev)
		rec.Device = dev
	}
	if c.Next(`,"service":`) {
		if sv == nil {
			sv = new(ServiceState)
		}
		readService(c, sv)
		rec.Service = sv
	}
	c.Lit("}")
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

func appendDevice(dst []byte, d *DeviceState) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(d.ID), 10)
	dst = append(dst, `,"key":`...)
	dst = canonjson.AppendBytes(dst, d.Key)
	dst = append(dst, `,"gen_counter":`...)
	dst = strconv.AppendUint(dst, d.GenCounter, 10)
	dst = append(dst, `,"ver_counter":`...)
	dst = strconv.AppendUint(dst, d.VerCounter, 10)
	dst = append(dst, `,"ver_failures":`...)
	dst = strconv.AppendInt(dst, int64(d.VerFailures), 10)
	dst = append(dst, `,"ver_locked_out":`...)
	dst = strconv.AppendBool(dst, d.VerLockedOut)
	dst = append(dst, `,"guard_state":`...)
	dst = strconv.AppendInt(dst, int64(d.GuardState), 10)
	dst = append(dst, `,"guard_failures":`...)
	dst = strconv.AppendInt(dst, int64(d.GuardFailures), 10)
	dst = append(dst, `,"now_unix_nano":`...)
	dst = strconv.AppendInt(dst, d.NowUnixNano, 10)
	dst = append(dst, `,"rng_draws":`...)
	dst = strconv.AppendUint(dst, d.RngDraws, 10)
	return append(dst, '}')
}

func appendService(dst []byte, sv *ServiceState) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, sv.Seq, 10)
	dst = append(dst, `,"next_dev":`...)
	dst = strconv.AppendUint(dst, sv.NextDev, 10)
	return append(dst, '}')
}

// appendRecordFrame appends rec as one WLR1 frame, encoding the payload
// in place after the header. On error dst comes back unchanged.
func appendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst, err := AppendRecord(openFrame(dst, recordMagic), rec)
	if err != nil {
		return dst[:start], fmt.Errorf("store: encoding record: %w", err)
	}
	if n := len(dst) - start - frameHeaderLen; n > MaxRecordSize {
		return dst[:start], fmt.Errorf("store: record %d bytes exceeds max %d", n, MaxRecordSize)
	}
	return closeFrame(dst, start), nil
}

// snapshotFrame returns sp as one WLS1 frame in a fresh buffer.
func snapshotFrame(sp *snapshotPayload) []byte {
	return closeFrame(appendSnapshot(openFrame(nil, snapMagic), sp), 0)
}

// openFrame appends magic and a zeroed length/CRC header to dst; the
// payload is appended after it and closeFrame fills the header in.
func openFrame(dst, magic []byte) []byte {
	dst = append(dst, magic...)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// closeFrame fills in the header of the frame opened at dst[start:].
func closeFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+8:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeRecord decodes a record payload into *rec, which must be the
// zero Record. The result is json.Unmarshal's, error included; slow
// reports that the payload left the canonical layout and was decoded by
// json.Unmarshal.
func decodeRecord(payload []byte, rec *Record) (slow bool, err error) {
	c := canonjson.NewReader(payload)
	ReadRecord(&c, rec)
	if c.Done() {
		return false, nil
	}
	*rec = Record{}
	return true, json.Unmarshal(payload, rec)
}

// decodeSnapshot decodes a checkpoint or snapshot payload into *sp,
// which must be the zero snapshotPayload, with decodeRecord's contract.
func decodeSnapshot(payload []byte, sp *snapshotPayload) (slow bool, err error) {
	c := canonjson.NewReader(payload)
	c.Lit(`{"last_seq":`)
	sp.LastSeq = c.Uint()
	c.Lit(`,"service":`)
	readService(&c, &sp.Service)
	c.Lit(`,"devices":`)
	if !c.Next("null") {
		c.Lit("[")
		if !c.Next("]") {
			// A device encodes to 150–300 bytes; size the slice from
			// the payload so it rarely regrows.
			sp.Devices = make([]DeviceState, 0, len(payload)/150+1)
			for {
				sp.Devices = append(sp.Devices, DeviceState{})
				readDevice(&c, &sp.Devices[len(sp.Devices)-1])
				if !c.Next(",") {
					break
				}
			}
			c.Lit("]")
		} else {
			sp.Devices = []DeviceState{}
		}
	}
	c.Lit("}")
	if c.Done() {
		return false, nil
	}
	*sp = snapshotPayload{}
	return true, json.Unmarshal(payload, sp)
}

func readDevice(c *canonjson.Reader, d *DeviceState) {
	c.Lit(`{"id":`)
	d.ID = int(c.Int(math.MaxInt))
	c.Lit(`,"key":`)
	d.Key = c.BytesInto(d.Key)
	c.Lit(`,"gen_counter":`)
	d.GenCounter = c.Uint()
	c.Lit(`,"ver_counter":`)
	d.VerCounter = c.Uint()
	c.Lit(`,"ver_failures":`)
	d.VerFailures = int(c.Int(math.MaxInt))
	c.Lit(`,"ver_locked_out":`)
	d.VerLockedOut = c.Bool()
	c.Lit(`,"guard_state":`)
	d.GuardState = int(c.Int(math.MaxInt))
	c.Lit(`,"guard_failures":`)
	d.GuardFailures = int(c.Int(math.MaxInt))
	c.Lit(`,"now_unix_nano":`)
	d.NowUnixNano = c.Int(math.MaxInt64)
	c.Lit(`,"rng_draws":`)
	d.RngDraws = c.Uint()
	c.Lit("}")
}

func readService(c *canonjson.Reader, sv *ServiceState) {
	c.Lit(`{"seq":`)
	sv.Seq = c.Uint()
	c.Lit(`,"next_dev":`)
	sv.NextDev = c.Uint()
	c.Lit("}")
}
