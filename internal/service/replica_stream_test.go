package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/replica"
	"wearlock/internal/store"
	"wearlock/internal/telemetry"
)

// newLoneFollower boots a warm standby with no primary attached, behind
// its own httptest server.
func newLoneFollower(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	cfg := durableConfig(t.TempDir())
	cfg.ShardID = "s0"
	cfg.Follow = true
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("follower New: %v", err)
	}
	t.Cleanup(func() { _ = f.Shutdown(context.Background()) })
	if err := f.WaitReady(context.Background()); err != nil {
		t.Fatalf("follower WaitReady: %v", err)
	}
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(srv.Close)
	return f, srv
}

// testStream opens the primary's end of a replication stream to baseURL
// outside any shipper, so a test can speak the stream directly.
func testStream(t *testing.T, baseURL string) *replStream {
	u, err := url.Parse(baseURL + "/replica/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	st := &replStream{url: u, metric: telemetry.NewRegistry().Counter("test_stream_dials_total", "test stream dials")}
	t.Cleanup(func() { replStop(nil, st) })
	return st
}

func inboundStreams(s *Service) int { return s.repl.inbound.Open() }

// A healthy replicated run rides one connection from attach to the end:
// one dial, on the status endpoint and the metric alike.
func TestReplicaStreamDialsOnce(t *testing.T) {
	rp := newReplicaPair(t)
	for round := 0; round < 2; round++ {
		for dev := 0; dev < rp.primary.cfg.Devices; dev++ {
			runSessionOn(t, rp.primary, dev)
		}
	}
	resp, err := http.Get(rp.primarySrv.URL + "/replica/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var info ReplicaInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || info.Shipper == nil {
		t.Fatalf("/replica/v1/status: %v %+v", err, info)
	}
	if info.Shipper.StreamDials != 1 || info.Shipper.Shipped == 0 {
		t.Fatalf("shipper status %+v, want 1 dial and shipped batches", *info.Shipper)
	}
	if n := rp.primary.m.replStreamDials.Value(); n != 1 {
		t.Fatalf("wearlockd_replica_stream_dials_total = %d, want 1", n)
	}
	if n := inboundStreams(rp.follower); n != 1 {
		t.Fatalf("follower holds %d inbound streams, want 1", n)
	}
	// The stream endpoint speaks nothing but the upgrade, and the
	// per-batch POST it replaced is gone.
	resp, err = http.Get(rp.followerSrv.URL + "/replica/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != replStreamProto {
		t.Fatalf("plain GET of the stream answered %d (Upgrade %q), want 426", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	resp, err = http.Post(rp.followerSrv.URL+"/replica/v1/append", cluster.WireContentType, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /replica/v1/append answered %d, want 404", resp.StatusCode)
	}
}

// Teardown reaches the hijacked streams, which http.Server.Close never
// does: a follower's Shutdown ends its inbound stream goroutine, and the
// primary's next batch fails on the dead connection as a transport error,
// redials into a refused upgrade, and detaches after DetachAfter
// failures.
func TestReplicaStreamTeardown(t *testing.T) {
	rp := newReplicaPair(t)
	runSessionOn(t, rp.primary, 0)
	if n := inboundStreams(rp.follower); n != 1 {
		t.Fatalf("follower holds %d inbound streams, want 1", n)
	}
	if err := rp.follower.Shutdown(context.Background()); err != nil {
		t.Fatalf("follower Shutdown: %v", err)
	}
	if n := inboundStreams(rp.follower); n != 0 {
		t.Fatalf("follower Shutdown left %d stream goroutines running", n)
	}

	// The follower's listener is still up; only the stream is gone. The
	// session's replication wait ends when the shipper detaches.
	sess := runSessionOn(t, rp.primary, 1)
	if sess.Err() != nil {
		t.Fatalf("session across the detach failed: %v", sess.Err())
	}
	st := rp.primary.ReplicaStatus().Shipper
	if st == nil || st.State != "detached" {
		t.Fatalf("shipper %+v, want detached", st)
	}
	if st.StreamDials < 2 {
		t.Fatalf("shipper never redialled: %d dials", st.StreamDials)
	}
	if n := rp.primary.m.replDetaches.Value(); n != 1 {
		t.Fatalf("wearlockd_replica_detaches_total = %d, want 1", n)
	}
	if n := inboundStreams(rp.follower); n != 0 {
		t.Fatalf("a shut-down follower took %d new streams", n)
	}
}

// The primary closes its end too: a re-register that replaces the
// shipper hangs up the old stream, and Shutdown the current one, so the
// follower's stream goroutines end without the follower's own teardown.
func TestReplicaStreamPrimaryTeardown(t *testing.T) {
	rp := newReplicaPair(t)
	runSessionOn(t, rp.primary, 0)
	awaitInbound := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for inboundStreams(rp.follower) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower holds %d inbound streams, want %d", what, inboundStreams(rp.follower), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitInbound(1, "attached")

	// Hold the replaced stream: an unreachable connection would be closed
	// by its finalizer, hiding a missing hang-up.
	rp.primary.repl.mu.Lock()
	replaced := rp.primary.repl.stream
	rp.primary.repl.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rp.follower.FollowPrimary(ctx, rp.primarySrv.URL, rp.followerSrv.URL); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	runSessionOn(t, rp.primary, 1)
	if n := rp.primary.m.replStreamDials.Value(); n != 2 {
		t.Fatalf("wearlockd_replica_stream_dials_total = %d after a re-register, want 2", n)
	}
	awaitInbound(1, "re-registered")
	runtime.KeepAlive(replaced)

	if err := rp.primary.Shutdown(ctx); err != nil {
		t.Fatalf("primary Shutdown: %v", err)
	}
	awaitInbound(0, "primary shut down")
}

// faultProxy relays replication streams to a follower and breaks the
// first connection's first batch in one way; later connections pass
// through untouched.
type faultProxy struct {
	ln     net.Listener
	target string
	fault  string
	stall  time.Duration
	conns  atomic.Int32
}

func startFaultProxy(t *testing.T, target, fault string, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, target: target, fault: fault, stall: stall}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(c, p.conns.Add(1) == 1)
		}
	}()
	return "http://" + ln.Addr().String()
}

func (p *faultProxy) relay(c net.Conn, faulty bool) {
	defer c.Close()
	u, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer u.Close()
	cbr, ubr := bufio.NewReader(c), bufio.NewReader(u)
	if relayHead(u, cbr) != nil || relayHead(c, ubr) != nil {
		return
	}
	var frame []byte
	for {
		if frame, err = cluster.ReadFrame(cbr, frame); err != nil {
			return
		}
		if faulty {
			switch p.fault {
			case "closed mid-frame":
				_, _ = u.Write(frame[:len(frame)/2])
				return
			case "bad CRC":
				frame[10] ^= 0xff
			case "oversized length":
				binary.LittleEndian.PutUint32(frame[6:], cluster.MaxWireSize+1)
			}
		}
		if _, err := u.Write(frame); err != nil {
			return
		}
		if frame, err = cluster.ReadFrame(ubr, frame); err != nil {
			return
		}
		if faulty && p.fault == "stall" {
			time.Sleep(p.stall)
		}
		if _, err := c.Write(frame); err != nil {
			return
		}
		faulty = false
	}
}

// relayHead copies one HTTP head, through its blank line.
func relayHead(dst io.Writer, src *bufio.Reader) error {
	for {
		line, err := src.ReadString('\n')
		if err != nil {
			return err
		}
		if _, err := io.WriteString(dst, line); err != nil {
			return err
		}
		if line == "\r\n" {
			return nil
		}
	}
}

// Every transport or framing fault closes the stream and the next send
// redials and ships the batch whole; no fault applies part of a batch.
// The stalled peer answers after the send deadline (scaled down from the
// shipper's 5 s), so its batch is applied whole but the answer is lost.
func TestReplicaStreamTransportFaults(t *testing.T) {
	const deadline, stall = 300 * time.Millisecond, time.Second
	for _, fault := range []string{"closed mid-frame", "bad CRC", "oversized length", "stall"} {
		t.Run(fault, func(t *testing.T) {
			f, fsrv := newLoneFollower(t)
			st := testStream(t, startFaultProxy(t, fsrv.Listener.Addr().String(), fault, stall))
			batch := &cluster.ReplicaAppendRequest{
				Epoch: 1, ShardID: "s0", BatchSeq: 1, Reset: true, FirstSeq: 1, LastSeq: 2,
				Records: []store.Record{
					{Seq: 1, Device: &store.DeviceState{ID: 0, Key: []byte{7}, GenCounter: 1 << 40}},
					{Seq: 2, Device: &store.DeviceState{ID: 1, Key: []byte{7}, GenCounter: 1 << 40}},
				},
			}
			applied := func() int {
				state, _ := f.StoreState()
				n := 0
				for _, id := range []int{0, 1} {
					if state.Devices[id].GenCounter == 1<<40 {
						n++
					}
				}
				return n
			}

			_, err := st.Send(time.Now().Add(deadline), batch)
			if err == nil || errors.Is(err, replica.ErrFenced) || errors.Is(err, replica.ErrOutOfSync) || errors.Is(err, replica.ErrCorrupt) {
				t.Fatalf("faulted send returned %v, want a transport error", err)
			}
			if n := applied(); n != 0 && (fault != "stall" || n != 2) {
				t.Fatalf("fault applied %d of the batch's 2 records", n)
			}

			if _, err := st.Send(time.Now().Add(5*time.Second), batch); err != nil {
				t.Fatalf("send after the fault: %v", err)
			}
			if n := st.metric.Value(); n != 2 {
				t.Fatalf("stream dialled %d times, want 2 (one redial)", n)
			}
			if n := applied(); n != 2 {
				t.Fatalf("resent batch applied %d of 2 records", n)
			}
		})
	}
}
