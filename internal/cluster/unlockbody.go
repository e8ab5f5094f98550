package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"

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

// ReadUnlockRequest reads a POST /v1/unlock body from rd, which the
// caller bounds by MaxUnlockBody, and decodes it into *req, which must
// be the zero UnlockRequest. n is the request's ContentLength.
func ReadUnlockRequest(rd io.Reader, n int64, req *UnlockRequest) error {
	var body []byte
	var err error
	if n > 0 && n <= MaxUnlockBody {
		// The client states the size: one exact read.
		body = make([]byte, n)
		_, err = io.ReadFull(rd, body)
	} else {
		body, err = io.ReadAll(rd)
	}
	if err != nil {
		return err
	}
	return DecodeUnlockRequest(body, req)
}

// DecodeUnlockRequest decodes body into *req, which must be the zero
// UnlockRequest, exactly as json.Decoder.Decode does: the first JSON
// value counts and whatever follows it is never read. A body opening
// with an object in the canonical layout AppendUnlockRequest writes is
// read without reflection; any other body goes to json.Decoder, so the
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

// read reads one object in AppendUnlockRequest's layout into *req,
// overwriting every field; non-nil Device and Wait pointers on entry are
// storage it reuses.
func (req *UnlockRequest) read(c *canonjson.Reader) {
	device, wait, scenario := req.Device, req.Wait, req.Scenario
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
		req.Scenario = c.StrReusing(scenario)
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
