// Package canonjson reads and writes the canonical JSON layout: the
// exact bytes json.Marshal writes for a struct of integers, booleans,
// byte slices and plain strings. Keys come in field order with no
// whitespace, integers are minimal, byte slices are standard base64 (or
// null for a nil slice) and omitempty members are left out (DESIGN.md
// §15.3).
//
// The writers produce json.Marshal's bytes for every input. A Reader
// accepts only that layout; the first byte that does not fit clears it,
// and the caller hands the whole payload to encoding/json instead. The
// store's WAL and snapshot records, the WLC1 replica frames and the
// POST /v1/unlock body all use it, so the layout rules live here once.
package canonjson

import (
	"encoding/base64"
	"encoding/json"
	"math"
)

// Reader walks a payload expected in the canonical layout. The first
// mismatch clears it; later calls are no-ops that return zero values.
type Reader struct {
	b  []byte
	i  int
	ok bool
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b, ok: true} }

// OK reports whether every byte so far fitted.
func (c *Reader) OK() bool { return c.ok }

// Done reports whether every byte so far fitted and the input is
// consumed.
func (c *Reader) Done() bool { return c.ok && c.i == len(c.b) }

// Next consumes s if the input continues with it.
func (c *Reader) Next(s string) bool {
	if c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// Lit consumes s or fails.
func (c *Reader) Lit(s string) {
	if !c.Next(s) {
		c.ok = false
	}
}

// Uint reads a minimal unsigned decimal ("0" or no leading zero) that
// fits in a uint64.
func (c *Reader) Uint() uint64 {
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

// Int reads a minimal signed decimal within [-max-1, max]; "-0" is not
// canonical.
func (c *Reader) Int(max int64) int64 {
	neg := c.Next("-")
	if neg && c.ok && c.i < len(c.b) && c.b[c.i] == '0' {
		c.ok = false
	}
	v := c.Uint()
	switch {
	case neg && v <= uint64(max)+1:
		return int64(-v)
	case !neg && v <= uint64(max):
		return int64(v)
	}
	c.ok = false
	return 0
}

// Bool reads true or false.
func (c *Reader) Bool() bool {
	if c.Next("true") {
		return true
	}
	c.Lit("false")
	return false
}

// Bytes reads a base64 string (or the null json.Marshal writes for a nil
// slice) exactly as encoding/json decodes it into a []byte.
func (c *Reader) Bytes() []byte { return c.BytesInto(nil) }

// BytesInto is Bytes decoding into buf's storage, grown when it is too
// short: a reader that keeps buf across messages decodes without a heap
// slice of its own. The result is nil for null and non-nil otherwise.
func (c *Reader) BytesInto(buf []byte) []byte {
	if c.Next("null") {
		return nil
	}
	c.Lit(`"`)
	b, i := c.b, c.i
	for i < len(b) && base64Chars[b[i]] {
		i++
	}
	src := b[c.i:i]
	c.i = i
	c.Lit(`"`)
	if !c.ok {
		return nil
	}
	n := base64.StdEncoding.DecodedLen(len(src))
	if cap(buf) < n || buf == nil {
		buf = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(buf[:n], src)
	if err != nil {
		c.ok = false
		return nil
	}
	return buf[:n]
}

// Str reads a string of plain characters only (see AppendStr); an
// escape or any other byte fails.
func (c *Reader) Str() string { return c.StrReusing("") }

// StrReusing is Str returning prev itself, with no new string, when the
// input holds the same characters: a reader that decodes a field whose
// value rarely changes passes the value it decoded last.
func (c *Reader) StrReusing(prev string) string {
	c.Lit(`"`)
	b, i := c.b, c.i
	for i < len(b) && plain[b[i]] {
		i++
	}
	s := b[c.i:i]
	c.i = i
	c.Lit(`"`)
	if !c.ok {
		return ""
	}
	if string(s) == prev {
		return prev
	}
	return string(s)
}

// AppendBytes appends b as json.Marshal writes a []byte: base64, or null
// for a nil slice.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// AppendStr appends s as json.Marshal writes a string. A string of plain
// characters is copied between quotes; any other string takes
// json.Marshal itself for its escaping and UTF-8 coercion.
func AppendStr(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain marks the bytes json.Marshal copies into a string unescaped and
// unchanged: printable ASCII except the quote, the backslash and the
// HTML characters it escapes.
var plain = func() (t [256]bool) {
	for ch := 0x20; ch < 0x7f; ch++ {
		t[ch] = true
	}
	for _, ch := range `"\<>&` {
		t[ch] = false
	}
	return t
}()

// base64Chars marks the standard base64 alphabet and its padding.
var base64Chars = func() (t [256]bool) {
	for _, ch := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=" {
		t[ch] = true
	}
	return t
}()
