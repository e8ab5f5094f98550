package cluster

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// WLC1 streams: one upgraded connection carries frame exchanges back to
// back, one request frame out and one answer frame back at a time, so a
// hot path pays one TCP connection and one HTTP upgrade for its whole
// life instead of one HTTP request per message. The replica stream
// (primary → follower, DESIGN.md §16.2) and the unlock stream (gateway →
// shard, DESIGN.md §13.2) are both built from the two halves here:
// Stream dials and upgrades, StreamServer accepts and serves.

// The unlock stream: the gateway carries POST /v1/unlock to a shard as
// MsgUnlock frames over GET UnlockStreamPath upgraded to
// UnlockStreamProto, one request in flight per connection.
const (
	UnlockStreamPath  = "/cluster/v1/unlock-stream"
	UnlockStreamProto = "wlc1-unlock"
)

// Stream is the dialling end of one upgraded WLC1 stream. It is not safe
// for concurrent use: one exchange at a time.
type Stream struct {
	conn net.Conn
	br   *bufio.Reader
	open func() bool // peerProbe(conn)
	out  []byte      // the request frame, kept across exchanges
	in   []byte      // the answer frame, kept across exchanges
}

// DialStream connects to u's host and upgrades GET u to proto, within
// ctx and by deadline (zero for none).
func DialStream(ctx context.Context, deadline time.Time, u *url.URL, proto string) (*Stream, error) {
	addr := net.JoinHostPort(u.Hostname(), cmp.Or(u.Port(), "80"))
	conn, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	st := &Stream{conn: conn, br: bufio.NewReader(conn), open: peerProbe(conn)}
	err = conn.SetDeadline(deadline)
	if err == nil {
		_, err = fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
			u.RequestURI(), u.Host, proto)
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(st.br, nil)
	}
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		err = fmt.Errorf("upgrade answered HTTP %d", resp.StatusCode)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return st, nil
}

// Exchange sends one frame and reads the answer frame, by deadline
// (zero for none), decoding it into into as DecodeInto does (nil for a
// new payload). Any error leaves the stream in an unknown state, and the
// caller closes it.
func (st *Stream) Exchange(deadline time.Time, t MsgType, payload, into any) (Message, error) {
	var err error
	if st.out, err = AppendFrame(st.out[:0], t, payload); err != nil {
		return Message{}, err
	}
	if err = st.conn.SetDeadline(deadline); err != nil {
		return Message{}, err
	}
	if _, err = st.conn.Write(st.out); err != nil {
		return Message{}, err
	}
	if st.in, err = ReadFrame(st.br, st.in); err != nil {
		return Message{}, err
	}
	return DecodeInto(st.in, into)
}

// Abort fails the exchange in progress, from any goroutine: a caller
// that gives up on the answer aborts, then closes the stream.
func (st *Stream) Abort() { st.conn.SetDeadline(time.Unix(1, 0)) }

// Alive reports, without blocking, whether an idle stream can carry
// another exchange: the peer has not hung up and has sent nothing
// unasked. A pooled stream is checked before reuse, so a request is
// never written to a connection the peer had already closed.
func (st *Stream) Alive() bool {
	return st.br.Buffered() == 0 && st.open()
}

// Close hangs the stream up.
func (st *Stream) Close() error { return st.conn.Close() }

// StreamServer is the accepting end of one kind of WLC1 stream.
// http.Server never closes a connection its handler hijacked, so the
// server tracks its own and hangs them up itself.
type StreamServer struct {
	proto string

	mu     sync.Mutex
	conns  map[net.Conn]context.CancelFunc
	closed bool
	wg     sync.WaitGroup
}

// NewStreamServer returns a server for streams upgraded to proto.
func NewStreamServer(proto string) *StreamServer {
	return &StreamServer{proto: proto, conns: make(map[net.Conn]context.CancelFunc)}
}

// Serve upgrades r's connection and answers each request frame with the
// frame answer appends to out, until either end closes or answer fails.
// A frame that cannot be read whole is never answered. The context
// answer gets ends when the stream is hung up.
func (ss *StreamServer) Serve(w http.ResponseWriter, r *http.Request, answer func(ctx context.Context, frame, out []byte) ([]byte, error)) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), ss.proto) {
		w.Header().Set("Upgrade", ss.proto)
		refuse(w, http.StatusUpgradeRequired, "cluster: this stream needs Upgrade: "+ss.proto)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		refuse(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer conn.Close()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ss.mu.Lock()
	open := !ss.closed
	if open {
		ss.conns[conn] = cancel
		ss.wg.Add(1)
	}
	ss.mu.Unlock()
	if !open {
		return
	}
	defer func() {
		ss.mu.Lock()
		delete(ss.conns, conn)
		ss.mu.Unlock()
		ss.wg.Done()
	}()
	// Clear any server deadline: a stream idles between exchanges.
	if err = conn.SetDeadline(time.Time{}); err == nil {
		_, err = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+ss.proto+"\r\n\r\n")
	}
	var frame, out []byte
	for err == nil {
		if frame, err = ReadFrame(brw.Reader, frame); err == nil {
			if out, err = answer(ctx, frame, out[:0]); err == nil {
				_, err = conn.Write(out)
			}
		}
	}
}

// refuse answers an upgrade request it will not serve with a MsgError
// frame.
func refuse(w http.ResponseWriter, status int, msg string) {
	body, _ := Encode(MsgError, &ErrorPayload{Error: msg}) // an ErrorPayload always encodes
	w.Header().Set("Content-Type", WireContentType)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// HangUp closes every stream open now; later upgrades are still served.
func (ss *StreamServer) HangUp() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for conn, cancel := range ss.conns {
		cancel()
		conn.Close()
	}
}

// Close hangs up every stream, refuses later upgrades and waits for the
// serving goroutines to end. Idempotent.
func (ss *StreamServer) Close() {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	ss.HangUp()
	ss.wg.Wait()
}

// Open counts the streams being served.
func (ss *StreamServer) Open() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.conns)
}
