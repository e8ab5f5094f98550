package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// readReference is the unpooled read UnlockBody.Read stands in for: the
// whole body through http.MaxBytesReader into a fresh slice, decoded
// into a zero request.
func readReference(w http.ResponseWriter, r *http.Request) (UnlockRequest, error) {
	var req UnlockRequest
	if r.Body == nil || r.ContentLength == 0 {
		return req, nil
	}
	rd := http.MaxBytesReader(w, r.Body, MaxUnlockBody)
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= MaxUnlockBody {
		body = make([]byte, n)
		_, err = io.ReadFull(rd, body)
	} else {
		body, err = io.ReadAll(rd)
	}
	if err == nil {
		err = DecodeUnlockRequest(body, &req)
	}
	return req, err
}

// echoUnlock answers with the decoded request or the read error, as
// both daemons' handlers do, from read.
func echoUnlock(read func(w http.ResponseWriter, r *http.Request) (UnlockRequest, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := read(w, r)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, "bad request body: %v", err)
			return
		}
		fmt.Fprintf(w, "%q %v %v %d", req.Scenario, deref(req.Device), deref(req.Wait), req.TimeoutMS)
	}
}

func deref[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}

// A pooled UnlockBody reads every body as the unpooled MaxBytesReader
// path does, one after another through the same pooled storage: the same
// request, the same error, and over the limit the same closed
// connection, whether the client states the length or streams the body
// chunked, states too much, or sends none.
func TestUnlockBodyReadMatchesReference(t *testing.T) {
	pooled := httptest.NewServer(echoUnlock(func(w http.ResponseWriter, r *http.Request) (UnlockRequest, error) {
		b := GetUnlockBody()
		defer b.Release()
		err := b.Read(w, r)
		req := b.Req
		if req.Device != nil { // the pool's storage: copy out before Release
			d := *req.Device
			req.Device = &d
		}
		if req.Wait != nil {
			w := *req.Wait
			req.Wait = &w
		}
		return req, err
	}))
	defer pooled.Close()
	reference := httptest.NewServer(echoUnlock(readReference))
	defer reference.Close()

	big := `{"scenario":"` + strings.Repeat("x", MaxUnlockBody) + `"}`
	type request struct {
		body    string
		length  int64 // Content-Length sent; -1 chunked
		partial bool  // the client sends less than it states
	}
	var cases []request
	for _, body := range []string{
		`{"scenario":"out-of-range","device":3}`, `{"scenario":"attacker","device":1,"wait":false,"timeout_ms":50}`,
		`{"device":7}`, `{}`, `{"scenario":"out-of-range"} trailing`, ` {"device": 2}`, `{"device":"one"}`,
		`{"wait":true,"device":1}`, `{"scenario":"caf\u00e9"}`, `{"device":`, `null`, ``,
		big, big[:MaxUnlockBody-2] + `"}`,
	} {
		cases = append(cases, request{body: body, length: int64(len(body))}, request{body: body, length: -1})
	}
	cases = append(cases, request{body: `{"device":1}`, length: 40, partial: true})

	for _, c := range cases {
		name := fmt.Sprintf("%.40q length %d", c.body, c.length)
		got, want := rawPost(t, pooled.URL, c.body, c.length, c.partial), rawPost(t, reference.URL, c.body, c.length, c.partial)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\npooled    %+v\nreference %+v", name, got, want)
		}
	}
}

// rawAnswer is what a client sees of one POST: status, body and whether
// the server closes the connection after it.
type rawAnswer struct {
	Status int
	Body   string
	Close  bool
}

// rawPost sends one POST /v1/unlock over a fresh connection, stating
// length (chunked when -1) and, when partial, hanging up its side
// before the stated length is sent.
func rawPost(t *testing.T, url, body string, length int64, partial bool) rawAnswer {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "POST /v1/unlock HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n")
	if length < 0 {
		fmt.Fprintf(w, "Transfer-Encoding: chunked\r\n\r\n")
		if body != "" {
			fmt.Fprintf(w, "%x\r\n%s\r\n", len(body), body)
		}
		fmt.Fprintf(w, "0\r\n\r\n")
	} else {
		fmt.Fprintf(w, "Content-Length: %d\r\n\r\n%s", length, body)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if partial {
		conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return rawAnswer{Status: resp.StatusCode, Body: string(data), Close: resp.Close}
}
