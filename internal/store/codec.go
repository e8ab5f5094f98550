package store

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
)

// The record codec (DESIGN.md §15.3). WAL records, checkpoint footers
// and the snapshot file are JSON exactly as json.Marshal writes Record
// and snapshotPayload: keys in field order, no whitespace, base64 keys,
// minimal integers, true/false, omitempty members left out. The encoder
// writes that layout without reflection; the decoder reads it without
// reflection and hands every other input — whitespace, reordered or
// case-variant keys, duplicates, escapes, a non-empty note, overflow,
// leading zeros, trailing bytes — to json.Unmarshal. The set of payloads
// accepted and every decoded value are therefore encoding/json's, and
// FuzzRecordCodec holds the two to that.

// appendRecord appends rec's JSON encoding, byte-identical to
// json.Marshal(rec), to dst. Records carrying a note take json.Marshal
// itself: notes are free text and need its escaping rules.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
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
	if d.Key == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, d.Key)
		dst = append(dst, '"')
	}
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
	dst, err := appendRecord(openFrame(dst, recordMagic), rec)
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
	c := canonReader{b: payload, ok: true}
	c.lit(`{"seq":`)
	rec.Seq = c.uint()
	if c.next(`,"device":`) {
		rec.Device = new(DeviceState)
		c.device(rec.Device)
	}
	if c.next(`,"service":`) {
		rec.Service = new(ServiceState)
		c.service(rec.Service)
	}
	c.lit("}")
	if c.done() {
		return false, nil
	}
	*rec = Record{}
	return true, json.Unmarshal(payload, rec)
}

// decodeSnapshot decodes a checkpoint or snapshot payload into *sp,
// which must be the zero snapshotPayload, with decodeRecord's contract.
func decodeSnapshot(payload []byte, sp *snapshotPayload) (slow bool, err error) {
	c := canonReader{b: payload, ok: true}
	c.lit(`{"last_seq":`)
	sp.LastSeq = c.uint()
	c.lit(`,"service":`)
	c.service(&sp.Service)
	c.lit(`,"devices":`)
	if !c.next("null") {
		c.lit("[")
		if !c.next("]") {
			// A device encodes to 150–300 bytes; size the slice from
			// the payload so it rarely regrows.
			sp.Devices = make([]DeviceState, 0, len(payload)/150+1)
			for c.ok {
				sp.Devices = append(sp.Devices, DeviceState{})
				c.device(&sp.Devices[len(sp.Devices)-1])
				if !c.next(",") {
					break
				}
			}
			c.lit("]")
		} else {
			sp.Devices = []DeviceState{}
		}
	}
	c.lit("}")
	if c.done() {
		return false, nil
	}
	*sp = snapshotPayload{}
	return true, json.Unmarshal(payload, sp)
}

// canonReader walks a payload expected in the canonical layout. The
// first mismatch clears ok; later calls are no-ops, and the caller
// falls back to json.Unmarshal.
type canonReader struct {
	b  []byte
	i  int
	ok bool
}

func (c *canonReader) done() bool { return c.ok && c.i == len(c.b) }

// next consumes s if the input continues with it.
func (c *canonReader) next(s string) bool {
	if c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// lit consumes s or fails.
func (c *canonReader) lit(s string) {
	if !c.next(s) {
		c.ok = false
	}
}

// uint reads a minimal unsigned decimal ("0" or no leading zero) that
// fits in a uint64.
func (c *canonReader) uint() uint64 {
	b, i := c.b, c.i
	if !c.ok || i >= len(b) || b[i]-'0' > 9 {
		c.ok = false
		return 0
	}
	if b[i] == '0' {
		c.i = i + 1
		return 0
	}
	// Nineteen digits cannot overflow; a twentieth might, a twenty-first
	// always does.
	j := i
	var v uint64
	for j < len(b) && j-i < 19 && b[j]-'0' <= 9 {
		v = v*10 + uint64(b[j]-'0')
		j++
	}
	if j < len(b) && b[j]-'0' <= 9 {
		d := uint64(b[j] - '0')
		if v > (math.MaxUint64-d)/10 || j+1 < len(b) && b[j+1]-'0' <= 9 {
			c.ok = false
			return 0
		}
		v = v*10 + d
		j++
	}
	c.i = j
	return v
}

// int reads a minimal signed decimal within [-max-1, max]; "-0" is not
// canonical.
func (c *canonReader) int(max int64) int64 {
	neg := c.next("-")
	if neg && c.ok && c.i < len(c.b) && c.b[c.i] == '0' {
		c.ok = false
	}
	v := c.uint()
	switch {
	case neg && v <= uint64(max)+1:
		return int64(-v)
	case !neg && v <= uint64(max):
		return int64(v)
	}
	c.ok = false
	return 0
}

func (c *canonReader) bool() bool {
	if c.next("true") {
		return true
	}
	c.lit("false")
	return false
}

// bytes reads a base64 string (or the null json.Marshal writes for a nil
// slice) exactly as encoding/json decodes it into a []byte.
func (c *canonReader) bytes() []byte {
	if c.next("null") {
		return nil
	}
	c.lit(`"`)
	b, i := c.b, c.i
	for i < len(b) && base64Chars[b[i]] {
		i++
	}
	src := b[c.i:i]
	c.i = i
	c.lit(`"`)
	if !c.ok {
		return nil
	}
	key := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(key, src)
	if err != nil {
		c.ok = false
		return nil
	}
	return key[:n]
}

// base64Chars marks the standard base64 alphabet and its padding.
var base64Chars = func() (t [256]bool) {
	for _, ch := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=" {
		t[ch] = true
	}
	return t
}()

func (c *canonReader) device(d *DeviceState) {
	c.lit(`{"id":`)
	d.ID = int(c.int(math.MaxInt))
	c.lit(`,"key":`)
	d.Key = c.bytes()
	c.lit(`,"gen_counter":`)
	d.GenCounter = c.uint()
	c.lit(`,"ver_counter":`)
	d.VerCounter = c.uint()
	c.lit(`,"ver_failures":`)
	d.VerFailures = int(c.int(math.MaxInt))
	c.lit(`,"ver_locked_out":`)
	d.VerLockedOut = c.bool()
	c.lit(`,"guard_state":`)
	d.GuardState = int(c.int(math.MaxInt))
	c.lit(`,"guard_failures":`)
	d.GuardFailures = int(c.int(math.MaxInt))
	c.lit(`,"now_unix_nano":`)
	d.NowUnixNano = c.int(math.MaxInt64)
	c.lit(`,"rng_draws":`)
	d.RngDraws = c.uint()
	c.lit("}")
}

func (c *canonReader) service(sv *ServiceState) {
	c.lit(`{"seq":`)
	sv.Seq = c.uint()
	c.lit(`,"next_dev":`)
	sv.NextDev = c.uint()
	c.lit("}")
}
