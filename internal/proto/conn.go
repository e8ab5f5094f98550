package proto

import (
	"context"
	"fmt"
	"sync"
	"time"

	"wearlock/internal/audio"
	"wearlock/internal/core"
	"wearlock/internal/wireless"
)

// Conn is one endpoint of a bidirectional control-channel connection
// between the phone and watch agents. Messages are framed with
// Message.Encode, carried over in-memory channels, and each Send reports
// the simulated radio latency of the underlying wireless link so agents
// can account protocol time without sleeping.
type Conn struct {
	name string
	link *wireless.Link
	out  chan<- []byte
	in   <-chan []byte

	mu      sync.Mutex
	simTime time.Duration // accumulated simulated radio time at this endpoint

	// shut is shared by both endpoints of a Pair: closing either side
	// tears down the connection. The sync.Once makes Close idempotent
	// across endpoints and concurrent callers — the per-endpoint closed
	// flag this replaces let phone.Close and watch.Close each close the
	// shared channel once, panicking on the second.
	shut *shutdown
}

// shutdown is the shared teardown state of a connection pair.
type shutdown struct {
	once sync.Once
	ch   chan struct{}
}

func (s *shutdown) close() { s.once.Do(func() { close(s.ch) }) }

// Pair creates the two connected endpoints over one wireless link.
func Pair(link *wireless.Link) (phone, watch *Conn) {
	a := make(chan []byte, 32)
	b := make(chan []byte, 32)
	shut := &shutdown{ch: make(chan struct{})}
	phone = &Conn{name: "phone", link: link, out: a, in: b, shut: shut}
	watch = &Conn{name: "watch", link: link, out: b, in: a, shut: shut}
	return phone, watch
}

// Send frames and transmits a message, returning the simulated latency
// charged to the radio.
func (c *Conn) Send(ctx context.Context, msg *Message) (time.Duration, error) {
	// Checked up front: the out channel is buffered, so the select below
	// could otherwise pick the ready send over the ready closed case and
	// let a post-close Send "succeed" into a channel nobody drains.
	if c.Closed() {
		return 0, fmt.Errorf("proto: %s send %s: connection closed", c.name, msg.Type)
	}
	data, err := msg.Encode()
	if err != nil {
		return 0, err
	}
	var latency time.Duration
	// Bulk payloads ride the ChannelAPI (file transfer); control
	// messages ride the MessageAPI.
	if len(data) > 4096 {
		latency, err = c.link.TransferFile(len(data))
	} else {
		latency, err = c.link.SendMessage(len(data))
	}
	if err != nil {
		return 0, fmt.Errorf("proto: %s send %s: %w", c.name, msg.Type, err)
	}
	c.mu.Lock()
	c.simTime += latency
	c.mu.Unlock()
	select {
	case c.out <- data:
	case <-c.shut.ch:
		return 0, fmt.Errorf("proto: %s send %s: connection closed", c.name, msg.Type)
	case <-ctx.Done():
		return 0, fmt.Errorf("proto: %s send %s: %w", c.name, msg.Type, ctx.Err())
	}
	return latency, nil
}

// Recv blocks for the next message or context cancellation. After Close
// it fails immediately, discarding any messages still buffered in flight
// — a torn-down session's tail is never delivered.
func (c *Conn) Recv(ctx context.Context) (*Message, error) {
	if c.Closed() {
		return nil, fmt.Errorf("proto: %s recv: connection closed", c.name)
	}
	select {
	case data, ok := <-c.in:
		if !ok {
			return nil, fmt.Errorf("proto: %s recv: connection closed", c.name)
		}
		msg, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("proto: %s recv: %w", c.name, err)
		}
		return msg, nil
	case <-c.shut.ch:
		return nil, fmt.Errorf("proto: %s recv: connection closed", c.name)
	case <-ctx.Done():
		return nil, fmt.Errorf("proto: %s recv: %w", c.name, ctx.Err())
	}
}

// PeerAbortError reports that the remote side aborted the session. The
// receiver must not answer it with another abort.
type PeerAbortError struct {
	Reason string
}

// Error implements error.
func (e *PeerAbortError) Error() string {
	return fmt.Sprintf("proto: peer aborted: %s", e.Reason)
}

// Expect receives the next message for the given session and checks its
// type. Stragglers from earlier (lower-numbered) sessions are discarded —
// an aborted session's tail must not poison the next one.
func (c *Conn) Expect(ctx context.Context, session uint64, want MsgType) (*Message, error) {
	for {
		msg, err := c.Recv(ctx)
		if err != nil {
			return nil, err
		}
		if msg.Session < session {
			continue // stale message from a finished/aborted session
		}
		if msg.Session != session {
			return nil, fmt.Errorf("proto: %s expected session %d, got %d", c.name, session, msg.Session)
		}
		if msg.Type == MsgAbort {
			return nil, &PeerAbortError{Reason: DecodeAbortPayload(msg.Payload).Reason}
		}
		if msg.Type != want {
			return nil, fmt.Errorf("proto: %s expected %s, got %s", c.name, want, msg.Type)
		}
		return msg, nil
	}
}

// SimTime reports the simulated radio time accumulated at this endpoint.
func (c *Conn) SimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simTime
}

// Close tears down both endpoints; pending and future operations fail.
// It is idempotent and safe to call from either endpoint, from both, and
// concurrently with in-flight Send/Recv calls.
func (c *Conn) Close() {
	c.shut.close()
}

// Closed reports whether either endpoint has torn the connection down.
func (c *Conn) Closed() bool {
	select {
	case <-c.shut.ch:
		return true
	default:
		return false
	}
}

// Medium is the shared acoustic channel between the agents: the phone
// plays frames into it, and the watch captures the receiver-side
// recordings the channel simulator produces.
type Medium struct {
	path core.AcousticPath
	rx   chan *audio.Buffer
}

// NewMedium wraps an acoustic path (honest or adversarial) as the shared
// medium.
func NewMedium(path core.AcousticPath) (*Medium, error) {
	if path == nil {
		return nil, fmt.Errorf("proto: medium requires an acoustic path")
	}
	return &Medium{path: path, rx: make(chan *audio.Buffer, 4)}, nil
}

// Play transmits a frame from the phone speaker; the watch-side recording
// becomes available to Capture. It returns the on-air duration.
func (m *Medium) Play(ctx context.Context, frame *audio.Buffer, volumeSPL float64) (time.Duration, error) {
	rec, err := m.path.Transmit(frame, volumeSPL)
	if err != nil {
		return 0, fmt.Errorf("proto: acoustic transmission: %w", err)
	}
	onAir := time.Duration(rec.Duration() * float64(time.Second))
	select {
	case m.rx <- rec:
		return onAir, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Capture blocks for the next recording at the watch microphone.
func (m *Medium) Capture(ctx context.Context) (*audio.Buffer, error) {
	select {
	case rec := <-m.rx:
		return rec, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("proto: capture: %w", ctx.Err())
	}
}

// ExtraLatency exposes the path's store-and-forward delay for the timing
// window.
func (m *Medium) ExtraLatency() time.Duration {
	return m.path.ExtraLatency()
}

// NominalLeadIn exposes the recording head length for distance bounding.
func (m *Medium) NominalLeadIn() int {
	return m.path.NominalLeadIn()
}
