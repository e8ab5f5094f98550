package canonjson

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// strCases covers every single byte, the HTML characters, escapes, a
// multi-byte rune and invalid UTF-8.
func strCases() []string {
	cases := []string{"", "s0", "follower-1", "a<b", "a&b", `a"b`, `a\b`, "tab\t", "é", "\xff", " ", "<script>"}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := make([]byte, rng.Intn(12))
		for j := range s {
			s[j] = byte(0x20 + rng.Intn(0x60))
		}
		cases = append(cases, string(s))
	}
	return cases
}

func TestAppendStrMatchesJSONMarshal(t *testing.T) {
	for _, s := range strCases() {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendStr([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("AppendStr(%q) = %s, want x%s", s, got, want)
		}
	}
}

// The Str reader takes back exactly the printable-ASCII strings
// json.Marshal copies verbatim and fails on every other encoding.
func TestStrReadsOnlyPlainStrings(t *testing.T) {
	for _, s := range strCases() {
		enc := AppendStr(nil, s)
		c := NewReader(enc)
		got := c.Str()
		plain := string(enc) == `"`+s+`"`
		for i := 0; i < len(s); i++ {
			plain = plain && s[i] >= 0x20 && s[i] < 0x7f
		}
		if c.Done() != plain || (plain && got != s) {
			t.Fatalf("Str over %s = %q, done %v; plain %v", enc, got, c.Done(), plain)
		}
	}
	for _, in := range []string{`"a\u0062"`, `"a`, `a"`, `"\"`, "\"\x1f\"", `"<"`} {
		c := NewReader([]byte(in))
		if c.Str(); c.OK() {
			t.Errorf("Str accepted %s", in)
		}
	}
}

func TestAppendBytesMatchesJSONMarshal(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0}, {0xff, 0xfe}, []byte("abc"), bytes.Repeat([]byte{0xfb}, 31)} {
		want, _ := json.Marshal(b)
		if got := AppendBytes(nil, b); !bytes.Equal(got, want) {
			t.Errorf("AppendBytes(%v) = %s, want %s", b, got, want)
		}
		c := NewReader(want)
		if got := c.Bytes(); !c.Done() || !bytes.Equal(got, b) || (got == nil) != (b == nil) {
			t.Errorf("Bytes over %s = %v (done %v), want %v", want, got, c.Done(), b)
		}
	}
}
