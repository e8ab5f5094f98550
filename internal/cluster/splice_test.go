package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Session bodies as a shard writes them (service.View through
// json.Encoder, trailing newline included).
const (
	viewDone   = `{"id":"s-000041","scenario":"quiet","device":3,"state":"done","outcome":"unlocked","unlocked":true,"detail":"token verified","ber":0,"ebn0_db":17.25,"unlock_delay_ms":812.4,"wall_ms":3.1}` + "\n"
	viewQueued = `{"id":"s-000042","scenario":"cafe","device":1,"state":"queued","unlocked":false,"ber":-1,"ebn0_db":0,"unlock_delay_ms":0,"wall_ms":0}` + "\n"
	viewFailed = `{"id":"s-000043","scenario":"walk","device":0,"state":"failed","outcome":"aborted-motion","unlocked":false,"detail":"DTW score 0.412 above threshold 0.100","error":"session: link down","ber":-1,"ebn0_db":0,"unlock_delay_ms":51.2,"wall_ms":0.4}` + "\n"
)

// relayedBody is what the gateway sent before bodies were spliced: the
// map path's rewrite, or the shard body untouched when it refuses.
func relayedBody(body []byte, shard string) []byte {
	if out, ok := namespaceSessionID(body, shard); ok {
		return out
	}
	return body
}

// decodeNumbers decodes a relayed body keeping number literals, so two
// bodies compare by value whatever their field order or spacing.
func decodeNumbers(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	return v, nil
}

// writeProxiedRecorded runs the gateway's relay of one shard answer.
func writeProxiedRecorded(status int, body []byte, shard string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	(&Gateway{}).writeProxied(rec, shard, proxied{status: status, body: body})
	return rec
}

func TestWriteProxiedSplicesViewBodies(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		body       string
		shard      string
		wantSplice bool // idSpliceAt accepts the body
		wantRename bool // the map path namespaces the body
	}{
		{"unlock-view", http.StatusOK, viewDone, "s0", true, true},
		{"session-view", http.StatusOK, viewFailed, "shard-7", true, true},
		{"accepted-202", http.StatusAccepted, viewQueued, "s1", true, true},
		{"error-body-200", http.StatusOK, `{"error":"unknown scenario"}` + "\n", "s0", false, false},
		{"error-429", http.StatusTooManyRequests, `{"error":"queue full"}` + "\n", "s0", false, false},
		{"error-503-view-shaped", http.StatusServiceUnavailable, viewQueued, "s0", true, true},
		{"leading-whitespace", http.StatusOK, " \n" + viewDone, "s0", false, true},
		{"shard-with-quote", http.StatusOK, viewDone, `s"0`, false, true},
		{"shard-with-backslash", http.StatusOK, viewDone, `s\0`, false, true},
		{"shard-with-newline", http.StatusOK, viewDone, "s\n0", false, true},
		{"empty-id", http.StatusOK, `{"id":"","state":"done"}`, "s0", false, false},
		{"id-not-first", http.StatusOK, `{"state":"done","id":"s-1"}`, "s0", false, true},
		{"duplicate-id", http.StatusOK, `{"id":"s-1","id":"s-2"}`, "s0", false, true},
		{"escaped-duplicate-id", http.StatusOK, `{"id":"s-1","\u0069d":"s-2"}`, "s0", false, true},
		{"html-escaped-detail", http.StatusOK, `{"id":"s-1","detail":"a \u003c b"}`, "s0", false, true},
		{"invalid-json", http.StatusOK, `{"id":"s-1",`, "s0", false, false},
		{"trailing-garbage", http.StatusOK, `{"id":"s-1"} x`, "s0", false, false},
		{"huge-number", http.StatusOK, `{"id":"s-1","ber":1e400}`, "s0", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			splice := idSpliceAt(body, tc.shard) > 0
			if splice != tc.wantSplice {
				t.Fatalf("idSpliceAt splices=%v, want %v", splice, tc.wantSplice)
			}
			if _, renamed := namespaceSessionID(body, tc.shard); renamed != tc.wantRename {
				t.Fatalf("map path renames=%v, want %v", renamed, tc.wantRename)
			}
			rec := writeProxiedRecorded(tc.status, body, tc.shard)
			got := rec.Body.Bytes()
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Fatalf("Content-Length %q for a %d-byte body", cl, len(got))
			}
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d", rec.Code, tc.status)
			}
			if tc.status != http.StatusOK && tc.status != http.StatusAccepted {
				if !bytes.Equal(got, body) {
					t.Fatalf("status %d body rewritten: %s", tc.status, got)
				}
				return
			}
			want := relayedBody(body, tc.shard)
			if !tc.wantRename {
				if !bytes.Equal(got, want) {
					t.Fatalf("unrenamed body changed:\n got %s\nwant %s", got, want)
				}
				return
			}
			gv, err := decodeNumbers(got)
			if err != nil {
				t.Fatalf("relayed body does not decode: %v\n%s", err, got)
			}
			wv, err := decodeNumbers(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("relayed body decodes differently from the map path:\n got %s\nwant %s", got, want)
			}
			if id := gv.(map[string]any)["id"].(string); !strings.HasPrefix(id, tc.shard+".") {
				t.Fatalf("id %q not namespaced by %q", id, tc.shard)
			}
			if tc.wantSplice && !bytes.HasSuffix(got, []byte(tc.body[len(viewPrefix):])) {
				t.Fatalf("spliced body does not keep the shard's field order: %s", got)
			}
		})
	}
}

// Through a real HTTP server the relayed answer keeps an exact
// Content-Length and is never chunked, including bodies larger than the
// server's pre-chunking buffer; forward reads it back exactly.
func TestProxiedResponseHasContentLength(t *testing.T) {
	long := `{"id":"s-000099","detail":"` + strings.Repeat("x", 6000) + `","unlocked":true}` + "\n"
	for _, body := range []string{viewDone, viewQueued, long, `{"id":"s-1","id":"s-2"}`} {
		gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(&Gateway{}).writeProxied(w, "s0", proxied{status: http.StatusOK, body: []byte(body)})
		}))
		resp, err := http.Get(gw.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		gw.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(got)) {
			t.Fatalf("%d-byte body relayed with Transfer-Encoding %v, Content-Length %d",
				len(got), resp.TransferEncoding, resp.ContentLength)
		}
	}
}

// forward returns the shard's exact body whether the shard states its
// length or streams it chunked.
func TestForwardReadsExactBody(t *testing.T) {
	long := strings.Repeat("y", 9000)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/sized":
			w.Header().Set("Content-Length", strconv.Itoa(len(viewDone)))
			_, _ = io.WriteString(w, viewDone)
		case "/chunked":
			_, _ = io.WriteString(w, long[:4000])
			w.(http.Flusher).Flush()
			_, _ = io.WriteString(w, long[4000:])
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer shard.Close()
	g, err := NewGateway(GatewayConfig{Shards: []ShardConfig{{Name: "s0", BaseURL: shard.URL}}, TotalDevices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/sized": viewDone, "/chunked": long, "/empty": ""} {
		for i := 0; i < 3; i++ { // reused keep-alive connections stay in sync
			resp, err := g.forward(context.Background(), "s0", path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if string(resp.body) != want {
				t.Fatalf("%s: body %d bytes, want %d", path, len(resp.body), len(want))
			}
		}
	}
}

// FuzzNamespaceSessionID: for any shard answer and shard name, what the
// gateway relays decodes to what the map path relays, and the splice is
// only taken where the map path renames too.
func FuzzNamespaceSessionID(f *testing.F) {
	for _, body := range []string{viewDone, viewQueued, viewFailed, `{"error":"queue full"}`,
		" " + viewDone, `{"id":"s-1","\u0069d":"s-2"}`, `{"id":"","x":1}`, `{"id":"s-1","ber":1e400}`,
		`{"id":"\"s\\u0041","n":[1,2,{"id":3}]}`, `{"id":"s-1"`} {
		f.Add([]byte(body), "s0")
	}
	f.Add([]byte(viewDone), `s"\0`)
	f.Fuzz(func(t *testing.T, body []byte, shard string) {
		mapOut, renamed := namespaceSessionID(body, shard)
		splice := idSpliceAt(body, shard) > 0
		if splice && !renamed {
			t.Fatalf("splice taken where the map path refuses: %q shard %q", body, shard)
		}
		rec := writeProxiedRecorded(http.StatusOK, body, shard)
		got := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, len(got))
		}
		if !renamed {
			if !bytes.Equal(got, body) {
				t.Fatalf("refused body rewritten: %q -> %q", body, got)
			}
			return
		}
		gv, gerr := decodeNumbers(got)
		wv, werr := decodeNumbers(mapOut)
		if gerr != nil || werr != nil || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("relay and map path disagree for %q shard %q:\n got %q (%v)\nwant %q (%v)",
				body, shard, got, gerr, mapOut, werr)
		}
	})
}
