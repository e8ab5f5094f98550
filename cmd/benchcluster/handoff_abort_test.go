package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/invariant"
)

// adoptFaultProxy fronts one shard and fails the Nth Adopt import with
// an injected 500, firing onFail first. Everything else — wire control
// traffic and the gateway's unlock streams alike — forwards verbatim, so
// the proxied shard behaves normally before and after the fault.
type adoptFaultProxy struct {
	backend string
	failNth int32
	adopts  atomic.Int32
	onFail  func()
}

func (p *adoptFaultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != "" {
		p.tunnel(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	if m, derr := cluster.Decode(body); derr == nil {
		if req, ok := m.Payload.(*cluster.ImportRangeRequest); ok && req.Adopt {
			if p.adopts.Add(1) == p.failNth {
				if p.onFail != nil {
					p.onFail()
				}
				w.WriteHeader(http.StatusInternalServerError)
				_, _ = io.WriteString(w, "injected adopt fault")
				return
			}
		}
	}
	req, err := http.NewRequest(r.Method, p.backend+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// tunnel relays an upgrade request and then the upgraded stream, both
// ways, until either end hangs up.
func (p *adoptFaultProxy) tunnel(w http.ResponseWriter, r *http.Request) {
	backend, err := net.Dial("tcp", strings.TrimPrefix(p.backend, "http://"))
	if err != nil {
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	defer backend.Close()
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	if r.Write(backend) != nil {
		return
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(conn, backend)
		conn.Close()
		close(done)
	}()
	_, _ = io.Copy(backend, brw.Reader)
	backend.Close()
	<-done
}

// TestClusterJoinAbortKeepsCommittedMoves is the regression drill for
// the partial-join abort contract: a join whose second move fails after
// the first committed must (a) keep the committed range routed to the
// new shard — returning it to a source whose durable counters predate
// the traffic the target served would be an HOTP counter regression and
// a replay window — (b) unfence the failed move's range on its source
// even though the triggering context was canceled mid-abort, and (c) be
// resumable by re-adding the same shard.
func TestClusterJoinAbortKeepsCommittedMoves(t *testing.T) {
	cfg := testBenchConfig()
	stateDir := t.TempDir()

	tc := &testCluster{}
	defer tc.close()
	var shardCfgs []cluster.ShardConfig
	for i := 0; i < 2; i++ {
		sc, err := bootShard(tc, shardConfig(cfg, fmt.Sprintf("s%d", i), stateDir))
		if err != nil {
			t.Fatal(err)
		}
		shardCfgs = append(shardCfgs, sc)
	}
	// MoveChunk 2 forces a multi-move plan even on a 16-device fleet, so
	// "fail the second adopt" always lands after a committed first move.
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:         shardCfgs,
		TotalDevices:   cfg.Devices,
		MoveChunk:      2,
		HandoffTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := &http.Server{Handler: gw.Handler()}
	go func() { _ = server.Serve(ln) }()
	tc.cleanup = append(tc.cleanup, func() { _ = server.Close() })
	tc.gw = gw
	tc.base = "http://" + ln.Addr().String()

	s2, err := bootShard(tc, shardConfig(cfg, "s2", stateDir))
	if err != nil {
		t.Fatal(err)
	}
	proxy := &adoptFaultProxy{backend: s2.BaseURL, failNth: 2}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pserver := &http.Server{Handler: proxy}
	go func() { _ = pserver.Serve(pln) }()
	tc.cleanup = append(tc.cleanup, func() { _ = pserver.Close() })
	proxyURL := "http://" + pln.Addr().String()

	client := &http.Client{Timeout: 60 * time.Second}
	var mu sync.Mutex
	unlocks := map[int]int{}
	unlockDevice := func(d int) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			body, _ := json.Marshal(map[string]any{"scenario": "default", "device": d})
			resp, err := client.Post(tc.base+"/v1/unlock", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("unlock device %d: %w", d, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var view sessionView
			_ = json.Unmarshal(raw, &view)
			switch {
			case resp.StatusCode == http.StatusOK && !(view.State == "failed" && view.Error != ""):
				if view.Unlocked {
					mu.Lock()
					unlocks[d]++
					mu.Unlock()
				}
				return nil
			case resp.StatusCode == http.StatusOK,
				resp.StatusCode == http.StatusTooManyRequests,
				resp.StatusCode == http.StatusServiceUnavailable:
				// Retryable: fenced-admitted session, backpressure, or a
				// mid-handoff 503.
			default:
				return fmt.Errorf("unlock device %d answered %d: %s", d, resp.StatusCode, raw)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("unlock device %d still failing at deadline: %d %s", d, resp.StatusCode, raw)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	before := tc.durableState()

	// At the injected fault the first move is committed and its override
	// routes to s2: drive traffic onto that range so the target's durable
	// counters move past the source's copies — the state a rollback to
	// the old ring would regress — then cancel the join's context so the
	// abort recovery must survive on its own.
	joinCtx, cancelJoin := context.WithCancel(context.Background())
	defer cancelJoin()
	var hookErr error
	proxy.onFail = func() {
		committed := gw.Topology().Owners["s2"]
		if len(committed) == 0 {
			hookErr = fmt.Errorf("no devices routed to s2 at fault time")
		}
		for _, d := range committed {
			if err := unlockDevice(d); err != nil && hookErr == nil {
				hookErr = err
			}
		}
		cancelJoin()
	}

	reports, err := gw.AddShard(joinCtx, cluster.ShardConfig{Name: "s2", BaseURL: proxyURL})
	if err == nil {
		t.Fatal("join with an injected adopt fault unexpectedly succeeded")
	}
	if hookErr != nil {
		t.Fatalf("driving load on the committed range mid-join: %v", hookErr)
	}
	committed := map[int]bool{}
	for _, rep := range reports {
		for _, d := range rep.Devices {
			committed[d] = true
		}
	}
	if len(committed) == 0 {
		t.Fatalf("fault aborted the join before any move committed: %v", err)
	}

	// (a) The committed range stays with s2 in the post-abort topology.
	top := gw.Topology()
	if got := len(top.Owners["s2"]); got != len(committed) {
		t.Errorf("post-abort topology routes %d devices to s2, want the %d committed (owners: %v)",
			got, len(committed), top.Owners)
	}
	for _, d := range top.Owners["s2"] {
		if !committed[d] {
			t.Errorf("post-abort topology routes uncommitted device %d to s2", d)
		}
	}

	// (a+b) Every device keeps serving through the gateway: committed
	// ones from s2, the failed move's from its unfenced source. A fence
	// left behind (abort recovery dying with the canceled join context)
	// would make this loop 503 until its deadline.
	for d := 0; d < cfg.Devices; d++ {
		if err := unlockDevice(d); err != nil {
			t.Fatalf("post-abort: %v", err)
		}
	}

	// (c) Re-adding the same shard resumes the remaining moves.
	if _, err := gw.AddShard(context.Background(), cluster.ShardConfig{Name: "s2", BaseURL: proxyURL}); err != nil {
		t.Fatalf("resuming aborted join: %v", err)
	}
	top = gw.Topology()
	if len(top.Shards) != 3 {
		t.Fatalf("topology has %d shards after resumed join, want 3", len(top.Shards))
	}
	for _, sh := range top.Shards {
		if sh.Owned == 0 {
			t.Errorf("shard %s owns no devices after resumed join", sh.Name)
		}
	}
	for d := 0; d < cfg.Devices; d++ {
		if err := unlockDevice(d); err != nil {
			t.Fatalf("post-resume: %v", err)
		}
	}

	// Invariants across abort and resume: the oracle over the
	// authoritative max-across-shards state. Re-granting sources their
	// stale pre-handoff ranges would show as an accepted replay.
	mu.Lock()
	defer mu.Unlock()
	if err := invariant.Check(invariant.Event{Before: before, After: tc.durableState(), Accepted: unlocks}).Err(); err != nil {
		t.Error(err)
	}
}
