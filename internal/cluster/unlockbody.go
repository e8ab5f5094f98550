package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"wearlock/internal/canonjson"
)

// UnlockRequest is the POST /v1/unlock body, the same for a wearlockd
// shard and the gateway in front of it. All fields are optional; an
// empty body requests one synchronous "default"-scenario session.
type UnlockRequest struct {
	// Scenario names a catalog entry (see GET /healthz for the list).
	Scenario string `json:"scenario,omitempty"`
	// Device pins a device pair; omitted or negative picks round-robin.
	Device *int `json:"device,omitempty"`
	// Wait selects synchronous mode (default true): the response carries
	// the terminal session state. With wait=false the daemon answers 202
	// immediately and the caller polls GET /v1/sessions/{id}.
	Wait *bool `json:"wait,omitempty"`
	// TimeoutMS overrides the daemon's per-request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MaxUnlockBody bounds a POST /v1/unlock body, at the gateway and at a
// shard.
const MaxUnlockBody = 1 << 20

// UnlockBody is one POST /v1/unlock request's decoded body with the
// storage decoding it reuses: the body bytes and Req's device and wait.
// A handler takes one per request (GetUnlockBody) and gives it back
// (Release) once nothing reads Req any more.
type UnlockBody struct {
	Req    UnlockRequest
	buf    []byte
	device int
	wait   bool
}

var unlockBodies = sync.Pool{New: func() any { return new(UnlockBody) }}

// maxPooledUnlockBody caps the body buffer an UnlockBody keeps in the
// pool, so one huge body is not held forever.
const maxPooledUnlockBody = 4 << 10

// GetUnlockBody returns an UnlockBody from the pool.
func GetUnlockBody() *UnlockBody { return unlockBodies.Get().(*UnlockBody) }

// Release gives b back to the pool; neither b nor b.Req may be used
// afterwards.
func (b *UnlockBody) Release() {
	if cap(b.buf) > maxPooledUnlockBody {
		b.buf = nil
	}
	unlockBodies.Put(b)
}

// Read reads r's body, if it has one, through http.MaxBytesReader(w,
// r.Body, MaxUnlockBody) and decodes it into b.Req as
// DecodeUnlockRequest does. A body whose stated length is within the
// limit is read straight into b's buffer, where the limit cannot bite;
// the answers are the same: the same request, the same errors, and over
// the limit the same closed connection.
func (b *UnlockBody) Read(w http.ResponseWriter, r *http.Request) error {
	if r.Body == nil || r.ContentLength == 0 {
		b.Req = UnlockRequest{}
		return nil
	}
	b.Req = UnlockRequest{Device: &b.device, Wait: &b.wait}
	body := b.buf[:0]
	var err error
	if n := r.ContentLength; n > 0 && n <= MaxUnlockBody {
		// The client states the size: one exact read.
		body = slices.Grow(body, int(n))[:n]
		b.buf = body
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxUnlockBody))
	}
	if err != nil {
		return err
	}
	return DecodeUnlockRequest(body, &b.Req)
}

// DecodeUnlockRequest decodes body into *req exactly as
// json.Decoder.Decode does into a zero UnlockRequest: the first JSON
// value counts and whatever follows it is never read. Every field of
// *req is overwritten; non-nil Device and Wait pointers on entry are
// storage a canonical body's fields are decoded into. A body opening
// with an object in the canonical layout AppendUnlockRequest writes is
// read without reflection, its scenario name taken from the names read
// before (canonjson.Names); any other body goes to json.Decoder, so the
// accepted bodies, the decoded values and the errors are its own.
func DecodeUnlockRequest(body []byte, req *UnlockRequest) error {
	c := canonjson.NewReader(body)
	req.read(&c)
	if c.OK() {
		return nil
	}
	// Decoding into a local that replaces *req keeps req from escaping
	// on the fast path.
	var slow UnlockRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&slow)
	*req = slow
	return err
}

// scenarioNames are the scenario names unlock requests named lately: a
// catalog has a handful, and requests repeat them. Like a sync.Pool it
// is shared process-wide and changes no decoded value, only whether a
// decode allocates.
var scenarioNames canonjson.Names

// read reads one object in AppendUnlockRequest's layout into *req,
// overwriting every field; non-nil Device and Wait pointers on entry are
// storage it reuses.
func (req *UnlockRequest) read(c *canonjson.Reader) {
	device, wait := req.Device, req.Wait
	*req = UnlockRequest{}
	c.Lit("{")
	members := 0
	// member consumes the key of the next member present, each written
	// here with the comma that precedes all but the first.
	member := func(key string) bool {
		if members == 0 {
			key = key[1:]
		}
		if c.Next(key) {
			members++
			return true
		}
		return false
	}
	if member(`,"scenario":`) {
		req.Scenario = c.StrIn(&scenarioNames)
	}
	if member(`,"device":`) {
		if device == nil {
			device = new(int)
		}
		*device = int(c.Int(math.MaxInt))
		req.Device = device
	}
	if member(`,"wait":`) {
		if wait == nil {
			wait = new(bool)
		}
		*wait = c.Bool()
		req.Wait = wait
	}
	if member(`,"timeout_ms":`) {
		req.TimeoutMS = int(c.Int(math.MaxInt))
	}
	c.Lit("}")
}

// appendJSON is AppendUnlockRequest for the wire's MsgUnlock.
func (req *UnlockRequest) appendJSON(dst []byte) ([]byte, error) {
	if req == nil {
		return append(dst, "null"...), nil
	}
	return AppendUnlockRequest(dst, req), nil
}

// AppendUnlockRequest appends json.Marshal(req)'s bytes to dst.
func AppendUnlockRequest(dst []byte, req *UnlockRequest) []byte {
	dst = append(dst, '{')
	open := len(dst)
	key := func(k string) {
		if len(dst) > open {
			dst = append(dst, ',')
		}
		dst = append(dst, k...)
	}
	if req.Scenario != "" {
		key(`"scenario":`)
		dst = canonjson.AppendStr(dst, req.Scenario)
	}
	if req.Device != nil {
		key(`"device":`)
		dst = strconv.AppendInt(dst, int64(*req.Device), 10)
	}
	if req.Wait != nil {
		key(`"wait":`)
		dst = strconv.AppendBool(dst, *req.Wait)
	}
	if req.TimeoutMS != 0 {
		key(`"timeout_ms":`)
		dst = strconv.AppendInt(dst, int64(req.TimeoutMS), 10)
	}
	return append(dst, '}')
}
