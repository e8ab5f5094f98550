package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"

	"wearlock/internal/canonjson"
	"wearlock/internal/store"
)

// Wire protocol: every gateway↔shard control message is one framed
// envelope,
//
//	magic "WLC1" | u8 version | u8 type | u32 LE payload length |
//	u32 LE CRC32C(payload) | JSON payload
//
// carried as an HTTP request/response body with Content-Type
// WireContentType, or back to back on a stream (ReadFrame). The frame
// exists so the protocol is explicit and
// evolvable — version skew fails the handshake with a typed error
// instead of a JSON shape mismatch deep inside a handoff — and so the
// decoder has a crisp fuzz surface (FuzzWireProtocol): arbitrary bytes
// must decode to an error, never a panic or a half-valid message.
const (
	// WireVersion is the protocol generation. A gateway and shard must
	// agree exactly; there is no cross-version negotiation yet.
	WireVersion = 1
	// WireContentType labels framed wire bodies on the HTTP transport.
	WireContentType = "application/x-wearlock-cluster"
	// wireHeaderLen is magic(4) + version(1) + type(1) + length(4) + crc(4).
	wireHeaderLen = 14
	// MaxWireSize bounds one message. Range exports dominate: a full
	// 64-device fleet's records are well under 100 KiB; 4 MiB leaves room
	// for much larger fleets while keeping a hostile length field from
	// allocating gigabytes.
	MaxWireSize = 4 << 20
)

var wireMagic = []byte("WLC1")

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// MsgType discriminates wire payloads.
type MsgType uint8

// Wire message types. Requests are even, their acks odd, so a stray
// response can never parse as a request.
const (
	MsgRegister MsgType = iota + 1
	MsgRegisterAck
	MsgHeartbeat
	MsgHeartbeatAck
	MsgExportRange
	MsgExportRangeAck
	MsgImportRange
	MsgImportRangeAck
	MsgReleaseRange
	MsgReleaseRangeAck
	MsgError
	MsgReplicaRegister
	MsgReplicaRegisterAck
	MsgReplicaAppend
	MsgReplicaAppendAck
	MsgPromote
	MsgPromoteAck
	msgTypeEnd // sentinel: first invalid type
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "register"
	case MsgRegisterAck:
		return "register-ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgHeartbeatAck:
		return "heartbeat-ack"
	case MsgExportRange:
		return "export-range"
	case MsgExportRangeAck:
		return "export-range-ack"
	case MsgImportRange:
		return "import-range"
	case MsgImportRangeAck:
		return "import-range-ack"
	case MsgReleaseRange:
		return "release-range"
	case MsgReleaseRangeAck:
		return "release-range-ack"
	case MsgError:
		return "error"
	case MsgReplicaRegister:
		return "replica-register"
	case MsgReplicaRegisterAck:
		return "replica-register-ack"
	case MsgReplicaAppend:
		return "replica-append"
	case MsgReplicaAppendAck:
		return "replica-append-ack"
	case MsgPromote:
		return "promote"
	case MsgPromoteAck:
		return "promote-ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// payloadFor returns the empty payload struct for a type, nil for
// unknown types.
func payloadFor(t MsgType) any {
	switch t {
	case MsgRegister:
		return &RegisterRequest{}
	case MsgRegisterAck:
		return &RegisterResponse{}
	case MsgHeartbeat:
		return &HeartbeatRequest{}
	case MsgHeartbeatAck:
		return &HeartbeatResponse{}
	case MsgExportRange:
		return &ExportRangeRequest{}
	case MsgExportRangeAck:
		return &ExportRangeResponse{}
	case MsgImportRange:
		return &ImportRangeRequest{}
	case MsgImportRangeAck:
		return &ImportRangeResponse{}
	case MsgReleaseRange:
		return &ReleaseRangeRequest{}
	case MsgReleaseRangeAck:
		return &ReleaseRangeResponse{}
	case MsgError:
		return &ErrorPayload{}
	case MsgReplicaRegister:
		return &ReplicaRegisterRequest{}
	case MsgReplicaRegisterAck:
		return &ReplicaRegisterResponse{}
	case MsgReplicaAppend:
		return &ReplicaAppendRequest{}
	case MsgReplicaAppendAck:
		return &ReplicaAppendResponse{}
	case MsgPromote:
		return &PromoteRequest{}
	case MsgPromoteAck:
		return &PromoteResponse{}
	default:
		return nil
	}
}

// RegisterRequest is the gateway's handshake: it tells a shard who it is
// in the cluster and which devices it owns. Registration is idempotent —
// a gateway that restarts re-registers the same assignment.
type RegisterRequest struct {
	// ShardID is the name the gateway routes by and the label the shard
	// stamps onto its metrics.
	ShardID string `json:"shard_id"`
	// Epoch is the gateway's topology generation. Shards reject control
	// messages from older epochs than the one they last accepted.
	Epoch uint64 `json:"epoch"`
	// TotalDevices is the global fleet size (the device ID space).
	TotalDevices int `json:"total_devices"`
	// Owned is the device-ID set this shard serves. IDs outside it are
	// answered 421 so the gateway can catch routing races.
	Owned []int `json:"owned"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	ShardID string `json:"shard_id"`
	Epoch   uint64 `json:"epoch"`
	// GoVersion/Commit mirror the shard's wearlockd_build_info labels.
	GoVersion string `json:"go_version"`
	// Devices is the shard's configured (global) fleet size, which must
	// cover TotalDevices.
	Devices int `json:"devices"`
	// Ready reports whether durable-state recovery has finished.
	Ready bool `json:"ready"`
}

// HeartbeatRequest is the gateway's liveness probe.
type HeartbeatRequest struct {
	Epoch uint64 `json:"epoch"`
}

// HeartbeatResponse reports a shard's pulse.
type HeartbeatResponse struct {
	ShardID    string `json:"shard_id"`
	Epoch      uint64 `json:"epoch"`
	Ready      bool   `json:"ready"`
	Draining   bool   `json:"draining"`
	Inflight   int64  `json:"inflight"`
	OwnedCount int    `json:"owned_count"`
}

// ExportRangeRequest asks a shard to export durable state for a device
// set. Two-phase use: the snapshot pass (Fence=false, Since=0) ships the
// bulk while the shard keeps serving; the tail pass (Fence=true,
// Since=<snapshot LastSeq>) fences the devices, waits out their
// in-flight sessions, commits their final states, and returns only the
// WAL records the snapshot pass missed.
type ExportRangeRequest struct {
	Epoch   uint64 `json:"epoch"`
	Devices []int  `json:"devices"`
	// Since is the store sequence horizon already shipped; only records
	// newer than it are returned. 0 means everything.
	Since uint64 `json:"since"`
	// Fence freezes the devices first: new submissions are answered 503 +
	// Retry-After until the range is released (or unfenced by a newer
	// registration).
	Fence bool `json:"fence"`
}

// ExportRangeResponse carries the exported records.
type ExportRangeResponse struct {
	ShardID string `json:"shard_id"`
	// Records is the WAL slice (plus a final merged-state record per
	// device, so a tail that compaction truncated can never under-ship).
	// Replaying them in order through the store's monotone merge is the
	// "WAL tail replay" half of the handoff.
	Records []store.Record `json:"records"`
	// LastSeq is the store's sequence high-water mark at export time —
	// the Since horizon for the tail pass.
	LastSeq uint64 `json:"last_seq"`
	// Fenced reports how many of the requested devices are now fenced
	// (tail pass only).
	Fenced int `json:"fenced"`
}

// ImportRangeRequest ships exported records to the new owner. The target
// replays them through its durable store (commit-then-adopt: the state
// is on disk before the shard answers) and, when Adopt is set, restores
// the in-memory devices and takes ownership.
type ImportRangeRequest struct {
	Epoch   uint64         `json:"epoch"`
	Devices []int          `json:"devices"`
	Records []store.Record `json:"records"`
	// Adopt is set on the final (tail) import: restore devices from the
	// merged state and start serving them.
	Adopt bool `json:"adopt"`
}

// ImportRangeResponse acknowledges an import.
type ImportRangeResponse struct {
	ShardID  string `json:"shard_id"`
	Imported int    `json:"imported"` // records replayed
	Adopted  int    `json:"adopted"`  // devices now owned
}

// ReleaseRangeRequest tells the old owner the handoff committed: drop
// the devices from its owned set (future submissions answer 421, the
// routing-race signal, rather than 503).
type ReleaseRangeRequest struct {
	Epoch   uint64 `json:"epoch"`
	Devices []int  `json:"devices"`
}

// ReleaseRangeResponse acknowledges a release.
type ReleaseRangeResponse struct {
	ShardID  string `json:"shard_id"`
	Released int    `json:"released"`
}

// ReplicaRegisterRequest is a follower's attach handshake to the
// primary it wants to follow. The primary answers by starting (or
// restarting) a shipper: a snapshot bootstrap covering everything past
// AppliedSeq, then the live WAL tail stream.
type ReplicaRegisterRequest struct {
	// FollowerURL is the base URL the primary ships batches to.
	FollowerURL string `json:"follower_url"`
	// FollowerID labels the follower in the primary's logs and metrics.
	FollowerID string `json:"follower_id"`
	// AppliedSeq is the highest source record sequence the follower has
	// already durably applied (0 for a fresh follower — source sequence
	// progress is not persisted across follower restarts, so a restarted
	// follower re-bootstraps from scratch; the monotone merge makes the
	// re-ship idempotent).
	AppliedSeq uint64 `json:"applied_seq"`
}

// ReplicaRegisterResponse acknowledges an attach.
type ReplicaRegisterResponse struct {
	ShardID string `json:"shard_id"`
	// LastSeq is the primary's record high-water mark at attach time.
	LastSeq uint64 `json:"last_seq"`
}

// ReplicaAppendRequest ships one replication batch, primary → follower.
// Reset batches carry snapshot-bootstrap records and may arrive at any
// BatchSeq (the follower adopts BatchSeq+1 as its next expectation);
// live batches must arrive strictly in BatchSeq order — a duplicate
// (BatchSeq at or below the last applied) is acknowledged without
// re-applying beyond the idempotent merge, a gap is refused so the
// shipper resyncs from a snapshot.
type ReplicaAppendRequest struct {
	// Epoch is the primary's shard epoch; a promoted follower refuses
	// older epochs with 409 (the fencing signal back to a stale primary).
	Epoch   uint64 `json:"epoch"`
	ShardID string `json:"shard_id"`
	// BatchSeq is the source committer's batch sequence.
	BatchSeq uint64 `json:"batch_seq"`
	// Reset marks a snapshot-bootstrap chunk (resync), not a live batch.
	Reset bool `json:"reset,omitempty"`
	// FirstSeq/LastSeq bound the source record sequences in Records. On
	// live batches the records are consecutive, so a truncated or padded
	// body is detectable as corruption.
	FirstSeq uint64         `json:"first_seq"`
	LastSeq  uint64         `json:"last_seq"`
	Records  []store.Record `json:"records"`
}

// ReplicaAppendResponse acknowledges a durably applied batch: the
// records are in the follower's own WAL (its own fsync) before this is
// sent — the replicated half of accepted⇒durable⇒replicated-or-fenced.
type ReplicaAppendResponse struct {
	FollowerID string `json:"follower_id"`
	// AppliedSeq is the follower's source-sequence high-water mark.
	AppliedSeq uint64 `json:"applied_seq"`
	// ExpectedBatch is the next live BatchSeq the follower will accept.
	ExpectedBatch uint64 `json:"expected_batch"`
}

// PromoteRequest is the gateway's failover order to a standby: adopt
// the shard identity at a freshly fenced epoch and start serving. The
// follower finishes reconciling its in-memory devices from its durable
// store (cheap — it warmed them on every applied batch), installs the
// ownership registration, and refuses further replica appends from any
// older epoch.
type PromoteRequest struct {
	// Epoch is the fenced topology generation: strictly newer than any
	// epoch the dead primary could still stamp on a straggling batch.
	Epoch        uint64 `json:"epoch"`
	ShardID      string `json:"shard_id"`
	TotalDevices int    `json:"total_devices"`
	Owned        []int  `json:"owned"`
}

// PromoteResponse acknowledges a promotion (idempotent: a retried
// promote at the same or older epoch answers with the current state).
type PromoteResponse struct {
	ShardID string `json:"shard_id"`
	Epoch   uint64 `json:"epoch"`
	// AppliedSeq is the source-sequence high-water mark at promotion.
	AppliedSeq uint64 `json:"applied_seq"`
	// Devices is how many devices the promoted shard now owns.
	Devices int `json:"devices"`
}

// ErrorPayload is the wire-level error answer (protocol mismatch, stale
// epoch, unknown devices).
type ErrorPayload struct {
	Error string `json:"error"`
	// Status is the HTTP status a refusal stands for where no HTTP
	// response carries one (the replication stream); omitted when zero.
	Status int `json:"status,omitempty"`
}

// Message is one decoded wire envelope.
type Message struct {
	Type MsgType
	// Payload is the typed body: *RegisterRequest for MsgRegister, etc.
	Payload any
}

// Encode frames a message for the wire in a fresh buffer.
func Encode(t MsgType, payload any) ([]byte, error) {
	return AppendFrame(nil, t, payload)
}

// AppendFrame appends one framed message to dst, encoding the payload in
// place after the header. The replica stream's hot messages,
// *ReplicaAppendRequest and *ReplicaAppendResponse, are written in the
// canonical layout without reflection; every other payload takes
// json.Marshal. Either way the bytes are json.Marshal's. On error dst
// comes back unchanged.
func AppendFrame(dst []byte, t MsgType, payload any) ([]byte, error) {
	if t == 0 || t >= msgTypeEnd {
		return dst, fmt.Errorf("cluster: encoding unknown message type %d", t)
	}
	start := len(dst)
	dst = append(dst, wireMagic...)
	dst = append(dst, WireVersion, byte(t), 0, 0, 0, 0, 0, 0, 0, 0)
	var err error
	if p, ok := payload.(*ReplicaAppendRequest); ok && p != nil {
		dst, err = p.appendJSON(dst)
	} else if p, ok := payload.(*ReplicaAppendResponse); ok && p != nil {
		dst = p.appendJSON(dst)
	} else {
		var body []byte
		body, err = json.Marshal(payload)
		dst = append(dst, body...)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("cluster: encoding %s payload: %w", t, err)
	}
	body := dst[start+wireHeaderLen:]
	if len(body) > MaxWireSize {
		return dst[:start], fmt.Errorf("cluster: %s payload %d bytes exceeds max %d", t, len(body), MaxWireSize)
	}
	binary.LittleEndian.PutUint32(dst[start+6:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+10:], crc32.Checksum(body, wireCastagnoli))
	return dst, nil
}

// appendJSON appends json.Marshal(p)'s bytes to dst.
func (p *ReplicaAppendRequest) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"epoch":`...)
	dst = strconv.AppendUint(dst, p.Epoch, 10)
	dst = append(dst, `,"shard_id":`...)
	dst = canonjson.AppendStr(dst, p.ShardID)
	dst = append(dst, `,"batch_seq":`...)
	dst = strconv.AppendUint(dst, p.BatchSeq, 10)
	if p.Reset {
		dst = append(dst, `,"reset":true`...)
	}
	dst = append(dst, `,"first_seq":`...)
	dst = strconv.AppendUint(dst, p.FirstSeq, 10)
	dst = append(dst, `,"last_seq":`...)
	dst = strconv.AppendUint(dst, p.LastSeq, 10)
	dst = append(dst, `,"records":`...)
	if p.Records == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range p.Records {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = store.AppendRecord(dst, &p.Records[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// read is appendJSON's inverse over the canonical layout only.
func (p *ReplicaAppendRequest) read(c *canonjson.Reader, size int) {
	c.Lit(`{"epoch":`)
	p.Epoch = c.Uint()
	c.Lit(`,"shard_id":`)
	p.ShardID = c.Str()
	c.Lit(`,"batch_seq":`)
	p.BatchSeq = c.Uint()
	p.Reset = c.Next(`,"reset":true`)
	c.Lit(`,"first_seq":`)
	p.FirstSeq = c.Uint()
	c.Lit(`,"last_seq":`)
	p.LastSeq = c.Uint()
	c.Lit(`,"records":`)
	if !c.Next("null") {
		c.Lit("[")
		if c.Next("]") {
			p.Records = []store.Record{}
		} else {
			// A device record encodes to 150–300 bytes; size the slice
			// from the payload so it rarely regrows.
			p.Records = make([]store.Record, 0, size/150+1)
			for {
				p.Records = append(p.Records, store.Record{})
				store.ReadRecord(c, &p.Records[len(p.Records)-1])
				if !c.Next(",") {
					break
				}
			}
			c.Lit("]")
		}
	}
	c.Lit("}")
}

// appendJSON appends json.Marshal(p)'s bytes to dst.
func (p *ReplicaAppendResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"follower_id":`...)
	dst = canonjson.AppendStr(dst, p.FollowerID)
	dst = append(dst, `,"applied_seq":`...)
	dst = strconv.AppendUint(dst, p.AppliedSeq, 10)
	dst = append(dst, `,"expected_batch":`...)
	dst = strconv.AppendUint(dst, p.ExpectedBatch, 10)
	return append(dst, '}')
}

// read is appendJSON's inverse over the canonical layout only.
func (p *ReplicaAppendResponse) read(c *canonjson.Reader) {
	c.Lit(`{"follower_id":`)
	p.FollowerID = c.Str()
	c.Lit(`,"applied_seq":`)
	p.AppliedSeq = c.Uint()
	c.Lit(`,"expected_batch":`)
	p.ExpectedBatch = c.Uint()
	c.Lit("}")
}

// frameLength checks a header (at least wireHeaderLen bytes) and returns
// its payload length: the one header parser, for Decode and ReadFrame.
func frameLength(hdr []byte) (uint32, error) {
	if !bytes.Equal(hdr[:4], wireMagic) {
		return 0, fmt.Errorf("cluster: bad wire magic %q", hdr[:4])
	}
	if v := hdr[4]; v != WireVersion {
		return 0, fmt.Errorf("cluster: wire version %d, this build speaks %d", v, WireVersion)
	}
	length := binary.LittleEndian.Uint32(hdr[6:])
	if length > MaxWireSize {
		return 0, fmt.Errorf("cluster: wire payload length %d exceeds max %d", length, MaxWireSize)
	}
	return length, nil
}

// ReadFrame reads the next whole frame off a stream into buf, kept by
// the caller, for Decode. A bad header fails before any payload is read.
// The stream ending between frames is io.EOF, inside one ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], wireHeaderLen)[:wireHeaderLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	length, err := frameLength(buf)
	if err == nil {
		buf = slices.Grow(buf, int(length))[:wireHeaderLen+int(length)]
		if _, err = io.ReadFull(r, buf[wireHeaderLen:]); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// Decode parses one framed message. Every malformed input returns an
// error; Decode never panics and never returns a partially-filled
// message alongside a nil error (the FuzzWireProtocol contract).
func Decode(data []byte) (Message, error) {
	t, payload, err := unframe(data)
	if err != nil {
		return Message{}, err
	}
	body, ok := decodeCanonical(t, payload)
	if !ok {
		body = payloadFor(t)
		if err := decodeStrict(t, payload, body); err != nil {
			return Message{}, err
		}
	}
	return Message{Type: t, Payload: body}, nil
}

// unframe checks a whole frame — header, length, CRC, a known type —
// and returns its type and payload.
func unframe(data []byte) (MsgType, []byte, error) {
	if len(data) < wireHeaderLen {
		return 0, nil, fmt.Errorf("cluster: wire frame %d bytes, need at least %d", len(data), wireHeaderLen)
	}
	length, err := frameLength(data)
	if err != nil {
		return 0, nil, err
	}
	t := MsgType(data[5])
	if int64(wireHeaderLen)+int64(length) != int64(len(data)) {
		return 0, nil, fmt.Errorf("cluster: wire frame length mismatch: header says %d payload bytes, have %d",
			length, len(data)-wireHeaderLen)
	}
	payload := data[wireHeaderLen:]
	if crc32.Checksum(payload, wireCastagnoli) != binary.LittleEndian.Uint32(data[10:]) {
		return 0, nil, fmt.Errorf("cluster: wire payload CRC mismatch")
	}
	if t == 0 || t >= msgTypeEnd {
		return 0, nil, fmt.Errorf("cluster: unknown wire message type %d", uint8(t))
	}
	return t, payload, nil
}

// decodeCanonical decodes a hot message's payload without reflection;
// ok reports that it was canonical end to end. Any other payload, or a
// hot one with a single byte out of layout (a noted record included),
// is left to decodeStrict as a whole.
func decodeCanonical(t MsgType, payload []byte) (body any, ok bool) {
	c := canonjson.NewReader(payload)
	switch t {
	case MsgReplicaAppend:
		p := new(ReplicaAppendRequest)
		p.read(&c, len(payload))
		body = p
	case MsgReplicaAppendAck:
		p := new(ReplicaAppendResponse)
		p.read(&c)
		body = p
	}
	return body, body != nil && c.Done()
}

// decodeStrict is the wire's reference decoder: exactly one JSON value,
// no unknown fields at any depth, nothing but whitespace after it.
func decodeStrict(t MsgType, payload []byte, body any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(body); err != nil {
		return fmt.Errorf("cluster: decoding %s payload: %w", t, err)
	}
	// Trailing JSON after the first value is framing damage, not a message.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("cluster: trailing data after %s payload", t)
	}
	return nil
}

// DecodeAs decodes and asserts the expected type, unwrapping MsgError
// into a Go error — the receive path every wire exchange shares.
func DecodeAs[T any](data []byte, want MsgType) (*T, error) {
	m, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if m.Type == MsgError {
		return nil, fmt.Errorf("cluster: peer error: %s", m.Payload.(*ErrorPayload).Error)
	}
	if m.Type != want {
		return nil, fmt.Errorf("cluster: expected %s, got %s", want, m.Type)
	}
	p, ok := m.Payload.(*T)
	if !ok {
		return nil, fmt.Errorf("cluster: %s payload has unexpected type %T", want, m.Payload)
	}
	return p, nil
}
