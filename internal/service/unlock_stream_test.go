package service

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
)

// answer is one HTTP answer as a client sees it.
type answer struct {
	status     int
	retryAfter string
	body       []byte
}

func relayPost(t *testing.T, ctx context.Context, url, body string) answer {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/unlock", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Retry-After"), data}
}

// sameAnswer requires the gateway's answer to be the shard's direct one.
func sameAnswer(t *testing.T, what string, relayed, direct answer) {
	t.Helper()
	if relayed.status != direct.status || relayed.retryAfter != direct.retryAfter || !bytes.Equal(relayed.body, direct.body) {
		t.Fatalf("%s: gateway answered %d (Retry-After %q) %q; the shard answers %d (Retry-After %q) %q", what,
			relayed.status, relayed.retryAfter, relayed.body, direct.status, direct.retryAfter, direct.body)
	}
}

// sameView requires a relayed session view to be the shard's with
// "<shard>." spliced into the ID.
func sameView(t *testing.T, what, shard string, relayed answer, shardURL string) {
	t.Helper()
	const prefix = `{"id":"` // every view opens with its ID
	if !bytes.HasPrefix(relayed.body, []byte(prefix+shard+".")) {
		t.Fatalf("%s: relayed view %q not namespaced by %q", what, relayed.body, shard)
	}
	id := decodeView(t, relayed.body)["id"].(string)
	_, rawID, _ := strings.Cut(id, ".")
	_, direct := getBody(t, http.MethodGet, shardURL+"/v1/sessions/"+rawID, "")
	want := append([]byte(prefix+shard+"."), direct[len(prefix):]...)
	if relayed.retryAfter != "" || !bytes.Equal(relayed.body, want) {
		t.Fatalf("%s: relayed view differs from the shard's:\n got %s (Retry-After %q)\nwant %s", what, relayed.body, relayed.retryAfter, want)
	}
}

// gatewayFor puts a gateway in front of shards named s0, s1, ... at the
// given URLs, registered when register is set.
func gatewayFor(t *testing.T, devices int, register bool, urls ...string) (*cluster.Gateway, string) {
	t.Helper()
	var shards []cluster.ShardConfig
	for i, u := range urls {
		shards = append(shards, cluster.ShardConfig{Name: "s" + strconv.Itoa(i), BaseURL: u})
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Shards: shards, TotalDevices: devices,
		Client: &http.Client{Timeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if register {
		if err := g.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv.URL
}

func serveShard(t *testing.T, s *Service) string {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// metricValue reads one sample of the gateway's own registry.
func metricValue(g *cluster.Gateway, sample string) string {
	for _, line := range strings.Split(g.Registry().String(), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			return v
		}
	}
	return ""
}

// sessionsOn counts the sessions a shard ran for one device.
func sessionsOn(s *Service, dev int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sess := range s.sessions {
		if sess.Device == dev {
			n++
		}
	}
	return n
}

// Every answer a shard gives POST /v1/unlock reaches the client through
// the gateway's unlock stream as the shard's own HTTP handler writes it:
// the same status, Retry-After and body, the "<shard>." splice into a
// session view's ID apart.
func TestUnlockStreamAnswersMatchHTTP(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	shardURL := serveShard(t, s)
	g, gw := gatewayFor(t, s.cfg.Devices, true, shardURL)
	ctx := context.Background()

	sameView(t, "200", "s0", relayPost(t, ctx, gw, `{"device":1,"scenario":"out-of-range"}`), shardURL)
	oversized := `{"device":1}` + strings.Repeat(" ", cluster.MaxUnlockBody)
	for _, body := range []string{`{"scenario":"no-such-scenario"}`, `{"device":`, `{"device":"one"}`, oversized} {
		sameAnswer(t, "400 "+body[:min(len(body), 40)], relayPost(t, ctx, gw, body), relayPost(t, ctx, shardURL, body))
	}
	s.shardFence([]int{2})
	sameAnswer(t, "503 fenced", relayPost(t, ctx, gw, `{"device":2}`), relayPost(t, ctx, shardURL, `{"device":2}`))

	// 202 and 429 on a shard whose workers are all held.
	b, release := blockableService(t, testConfig())
	defer func() { _ = b.Shutdown(context.Background()) }()
	defer close(release)
	blockedURL := serveShard(t, b)
	_, bgw := gatewayFor(t, b.cfg.Devices, true, blockedURL)
	for i := 0; i < 2; i++ {
		if _, err := b.Submit(Request{Device: i}); err != nil {
			t.Fatal(err)
		}
	}
	for b.m.inflight.Value() < 2 {
		time.Sleep(time.Millisecond)
	}
	sameView(t, "202", "s0", relayPost(t, ctx, bgw, `{"device":2,"wait":false}`), blockedURL)
	if _, err := b.Submit(Request{Device: 3}); err != nil {
		t.Fatal(err)
	}
	relayed, direct := relayPost(t, ctx, bgw, `{"device":0}`), relayPost(t, ctx, blockedURL, `{"device":0}`)
	if relayed.status != http.StatusTooManyRequests || relayed.retryAfter == "" {
		t.Fatalf("full shard answered %d (Retry-After %q) through the gateway", relayed.status, relayed.retryAfter)
	}
	sameAnswer(t, "429", relayed, direct)

	// 503 from a warm standby, which refuses unlocks until promoted.
	_, fsrv := newLoneFollower(t)
	fURL := fsrv.URL
	_, fgw := gatewayFor(t, s.cfg.Devices, false, fURL)
	sameAnswer(t, "503 following", relayPost(t, ctx, fgw, `{"device":0}`), relayPost(t, ctx, fURL, `{"device":0}`))

	// 503 once draining.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "503 draining", relayPost(t, ctx, gw, `{"device":0}`), relayPost(t, ctx, shardURL, `{"device":0}`))

	if got := metricValue(g, `wearlock_gateway_unlock_stream_dials_total`); got != "1" {
		t.Errorf("unlock stream dials = %q, want 1: every answer rode one pooled stream", got)
	}
	if got := metricValue(g, `wearlock_gateway_shard_seconds_count{shard="s0"}`); got != "4" {
		t.Errorf("shard hop observations = %q, want 4", got)
	}
}

// streamProxy fronts a daemon for a gateway. Plain HTTP passes through
// untouched; on an unlock stream each request frame waits on hold, and
// the daemon's answer then meets one of the proxy's actions.
type streamProxy struct {
	target string
	hold   func(n int)             // before request frame n (from 1) goes on
	answer func(n int) proxyAction // what becomes of the answer to frame n
	frames atomic.Int32
	hungUp chan struct{} // one token per hang-up the proxy made
}

type proxyAction int

const (
	relayAnswer proxyAction = iota
	// dropAnswer hangs up without relaying: the daemon read the frame
	// and answered, and the gateway never hears it.
	dropAnswer
	// relayThenHangUp relays, then hangs up: the gateway pools a stream
	// the far end has already closed.
	relayThenHangUp
)

func startStreamProxy(t *testing.T, targetURL string, p *streamProxy) string {
	t.Helper()
	p.target = strings.TrimPrefix(targetURL, "http://")
	p.hungUp = make(chan struct{}, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(c)
		}
	}()
	return "http://" + ln.Addr().String()
}

func (p *streamProxy) relay(c net.Conn) {
	defer c.Close()
	u, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer u.Close()
	cbr, ubr := bufio.NewReader(c), bufio.NewReader(u)
	line, err := cbr.Peek(len("GET " + cluster.UnlockStreamPath))
	if err != nil {
		return
	}
	if string(line) != "GET "+cluster.UnlockStreamPath {
		go func() {
			_, _ = io.Copy(c, u)
			c.Close()
		}()
		_, _ = io.Copy(u, cbr)
		return
	}
	if relayHead(u, cbr) != nil || relayHead(c, ubr) != nil {
		return
	}
	var frame []byte
	for {
		if frame, err = cluster.ReadFrame(cbr, frame); err != nil {
			return
		}
		n := int(p.frames.Add(1))
		if p.hold != nil {
			p.hold(n)
		}
		if _, err := u.Write(frame); err != nil {
			return
		}
		if frame, err = cluster.ReadFrame(ubr, frame); err != nil {
			return
		}
		action := relayAnswer
		if p.answer != nil {
			action = p.answer(n)
		}
		if action != dropAnswer {
			if _, err := c.Write(frame); err != nil {
				return
			}
		}
		if action != relayAnswer {
			c.Close()
			u.Close()
			p.hungUp <- struct{}{}
			return
		}
	}
}

// A shard that hangs up after reading an unlock frame costs the client a
// 503 + Retry-After, never a second session: the gateway does not send a
// frame again once it wrote it.
func TestUnlockStreamShardHangUpNeverResends(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	proxy := &streamProxy{answer: func(int) proxyAction { return dropAnswer }}
	g, gw := gatewayFor(t, s.cfg.Devices, true, startStreamProxy(t, serveShard(t, s), proxy))

	got := relayPost(t, context.Background(), gw, `{"device":1,"scenario":"out-of-range"}`)
	if got.status != http.StatusServiceUnavailable || got.retryAfter == "" {
		t.Fatalf("lost answer reached the client as %d (Retry-After %q): %s", got.status, got.retryAfter, got.body)
	}
	if n := proxy.frames.Load(); n != 1 {
		t.Fatalf("the gateway sent %d unlock frames for one request, want 1", n)
	}
	if n := sessionsOn(s, 1); n != 1 {
		t.Fatalf("device 1 ran %d sessions for one request, want 1", n)
	}
	if got := metricValue(g, "wearlock_gateway_shard_errors_total"); got != "1" {
		t.Errorf("shard errors = %q, want 1", got)
	}
}

// A pooled stream the shard closed while it idled never fails the next
// request: the gateway sees the hang-up before writing and dials afresh.
func TestUnlockStreamPooledStreamClosedByShard(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	proxy := &streamProxy{answer: func(n int) proxyAction {
		if n == 1 {
			return relayThenHangUp
		}
		return relayAnswer
	}}
	shardURL := serveShard(t, s)
	g, gw := gatewayFor(t, s.cfg.Devices, true, startStreamProxy(t, shardURL, proxy))

	sameView(t, "first unlock", "s0", relayPost(t, context.Background(), gw, `{"device":1}`), shardURL)
	<-proxy.hungUp
	for i := 0; i < 3; i++ {
		sameView(t, "unlock after the hang-up", "s0", relayPost(t, context.Background(), gw, `{"device":2}`), shardURL)
	}
	if got := metricValue(g, "wearlock_gateway_unlock_stream_dials_total"); got != "2" {
		t.Errorf("unlock stream dials = %q, want 2 (the first stream, one replacement)", got)
	}
	if got := metricValue(g, "wearlock_gateway_shard_errors_total"); got != "0" {
		t.Errorf("shard errors = %q, want 0", got)
	}
}

// A 421 from a shard that lost the device to a handoff while the request
// was on its way re-routes once, to the new owner, whose answer reaches
// the client as it wrote it.
func TestUnlockStreamMisdirectedReroutes(t *testing.T) {
	s0, s0URL := newLoneShard(t, "s0")
	s1, s1URL := newLoneShard(t, "s1")
	devices := s0.cfg.Devices

	// The device the join moves from s0 to s1.
	ring := cluster.NewRing(0)
	if err := ring.AddShard("s0"); err != nil {
		t.Fatal(err)
	}
	next := ring.Clone()
	if err := next.AddShard("s1"); err != nil {
		t.Fatal(err)
	}
	moved := -1
	for d, owner := range next.Assignments(devices) {
		if owner == "s1" && (moved < 0 || d < moved) {
			moved = d
		}
	}
	if moved < 0 {
		t.Fatal("the join moves no device")
	}

	held, release := make(chan struct{}), make(chan struct{})
	proxy := &streamProxy{hold: func(n int) {
		if n == 1 {
			close(held)
			<-release
		}
	}}
	g, gw := gatewayFor(t, devices, true, startStreamProxy(t, s0URL, proxy))
	got := make(chan answer, 1)
	go func() {
		got <- relayPost(t, context.Background(), gw, `{"device":`+strconv.Itoa(moved)+`}`)
	}()
	<-held
	if _, err := g.AddShard(context.Background(), cluster.ShardConfig{Name: "s1", BaseURL: s1URL}); err != nil {
		t.Fatalf("join: %v", err)
	}
	close(release)
	sameView(t, "re-routed unlock", "s1", <-got, s1URL)
	if got := metricValue(g, "wearlock_gateway_reroutes_total"); got != "1" {
		t.Errorf("reroutes = %q, want 1", got)
	}
	if n := sessionsOn(s0, moved); n != 0 {
		t.Errorf("the old owner ran %d sessions for device %d", n, moved)
	}
	if n := sessionsOn(s1, moved); n != 1 {
		t.Errorf("the new owner ran %d sessions for device %d, want 1", n, moved)
	}
}

// newLoneShard starts a durable daemon serving as shard name.
func newLoneShard(t *testing.T, name string) (*Service, string) {
	t.Helper()
	cfg := durableConfig(t.TempDir())
	cfg.ShardID = name
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if err := s.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, serveShard(t, s)
}

// A request whose client goes away abandons its stream: the gateway
// closes it rather than pool a connection whose answer is still coming.
func TestUnlockStreamCancelAbandonsStream(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { _ = s.Shutdown(context.Background()) }()
	shardURL := serveShard(t, s)
	g, gw := gatewayFor(t, s.cfg.Devices, true, shardURL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, gw+"/v1/unlock", strings.NewReader(`{"device":1}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	for s.m.inflight.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request completed")
	}
	// Well inside the held session's 5 s deadline: the cancel, not the
	// shard's late answer, ends the exchange.
	deadline := time.Now().Add(3 * time.Second)
	for metricValue(g, "wearlock_gateway_shard_errors_total") != "1" {
		if time.Now().After(deadline) {
			t.Fatal("the gateway still waits on the shard after its client went away")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if got := relayPost(t, context.Background(), gw, `{"device":2}`); got.status != http.StatusOK {
		t.Fatalf("unlock after the cancel answered %d: %s", got.status, got.body)
	}
	if got := metricValue(g, "wearlock_gateway_unlock_stream_dials_total"); got != "2" {
		t.Errorf("unlock stream dials = %q, want 2: the abandoned stream was pooled", got)
	}
}

// Shutdown and Kill hang up the inbound unlock streams, which
// http.Server never closes, and the gateway then fails over to 503 +
// Retry-After rather than hanging.
func TestUnlockStreamTeardown(t *testing.T) {
	for _, stop := range []string{"Shutdown", "Kill"} {
		t.Run(stop, func(t *testing.T) {
			s, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			_, gw := gatewayFor(t, s.cfg.Devices, true, serveShard(t, s))
			if got := relayPost(t, context.Background(), gw, `{"device":1}`); got.status != http.StatusOK {
				t.Fatalf("unlock answered %d: %s", got.status, got.body)
			}
			if n := s.unlockStreams.Open(); n != 1 {
				t.Fatalf("shard serves %d unlock streams, want 1", n)
			}
			if stop == "Kill" {
				s.Kill()
			} else if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if n := s.unlockStreams.Open(); n != 0 {
				t.Fatalf("%s left %d unlock streams open", stop, n)
			}
			got := relayPost(t, context.Background(), gw, `{"device":1}`)
			if got.status != http.StatusServiceUnavailable || got.retryAfter == "" {
				t.Fatalf("unlock after %s answered %d (Retry-After %q): %s", stop, got.status, got.retryAfter, got.body)
			}
		})
	}
}

// Gateway.Close hangs up the streams it pools at once and a stream in
// use when its exchange ends, so none outlives the gateway on the
// shard; an unlock after Close still answers, on a stream of its own.
func TestUnlockStreamGatewayClose(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	gate := make(chan struct{})
	direct := s.unlock
	s.unlock = func(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error) {
		if dev.id == 2 {
			<-gate
		}
		return direct(ctx, dev, sc)
	}
	g, gw := gatewayFor(t, s.cfg.Devices, true, serveShard(t, s))
	openStreams := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.unlockStreams.Open() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: shard serves %d unlock streams, want %d", what, s.unlockStreams.Open(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(gw+"/v1/unlock", "application/json", strings.NewReader(`{"device":2}`))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	for s.m.inflight.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	if got := relayPost(t, context.Background(), gw, `{"device":1}`); got.status != http.StatusOK {
		t.Fatalf("unlock answered %d: %s", got.status, got.body)
	}
	openStreams(2, "one stream pooled, one in use")

	g.Close()
	openStreams(1, "after Close")
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held unlock answered %d", code)
	}
	openStreams(0, "after the in-use stream came back")
	if got := relayPost(t, context.Background(), gw, `{"device":1}`); got.status != http.StatusOK {
		t.Fatalf("unlock after Close answered %d: %s", got.status, got.body)
	}
	openStreams(0, "after an unlock past Close")
	if got := metricValue(g, "wearlock_gateway_unlock_stream_dials_total"); got != "3" {
		t.Errorf("unlock stream dials = %q, want 3", got)
	}
}

// A failover re-point drops the shard's pooled streams: the next unlock
// dials the promoted standby instead of riding a stream to the fenced
// primary, which the gateway hangs up.
func TestUnlockStreamFailoverDropsPool(t *testing.T) {
	rp := newReplicaPair(t)
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:       []cluster.ShardConfig{{Name: "s0", BaseURL: rp.primarySrv.URL}},
		TotalDevices: rp.primary.cfg.Devices,
		Standbys:     map[string]string{"s0": rp.followerSrv.URL},
		Client:       &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	if got := relayPost(t, context.Background(), gsrv.URL, `{"device":1}`); got.status != http.StatusOK {
		t.Fatalf("unlock answered %d: %s", got.status, got.body)
	}
	if err := g.Failover(context.Background(), "s0"); err != nil {
		t.Fatalf("failover: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rp.primary.unlockStreams.Open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the gateway kept its stream to the fenced primary")
		}
		time.Sleep(time.Millisecond)
	}
	sameView(t, "unlock after failover", "s0", relayPost(t, context.Background(), gsrv.URL, `{"device":1}`), rp.followerSrv.URL)
	if got := metricValue(g, "wearlock_gateway_unlock_stream_dials_total"); got != "2" {
		t.Errorf("unlock stream dials = %q, want 2", got)
	}
}

// Concurrent unlocks never share a stream: each client gets the answer
// to its own request, and the pool dials at most one stream per request
// in flight.
func TestUnlockStreamConcurrentClients(t *testing.T) {
	cfg := testConfig()
	cfg.Devices, cfg.Workers, cfg.QueueDepth = 16, 4, 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	g, gw := gatewayFor(t, cfg.Devices, true, serveShard(t, s))
	const clients, rounds = 16, 8
	errs := make(chan string, clients*rounds)
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(dev int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rounds; i++ {
				req, _ := http.NewRequest(http.MethodPost, gw+"/v1/unlock",
					strings.NewReader(`{"scenario":"out-of-range","device":`+strconv.Itoa(dev)+`}`))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err.Error()
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"device":`+strconv.Itoa(dev)+`,`)) {
					errs <- "device " + strconv.Itoa(dev) + " answered " + strconv.Itoa(resp.StatusCode) + ": " + string(body)
				}
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	dials, err := strconv.Atoi(metricValue(g, "wearlock_gateway_unlock_stream_dials_total"))
	if err != nil || dials < 1 || dials > clients {
		t.Errorf("unlock stream dials = %d (%v), want 1..%d", dials, err, clients)
	}
}
