package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/replica"
	"wearlock/internal/store"
	"wearlock/internal/vtime"
)

// replicaPair stands up a primary and a warm standby of the same shard:
// identical fleet seed, separate durable stores, HTTP surfaces wired
// through httptest. The follower has attached and bootstrapped before
// this returns.
type replicaPair struct {
	primary, follower       *Service
	primarySrv, followerSrv *httptest.Server
}

func newReplicaPair(t *testing.T) *replicaPair {
	t.Helper()
	cfgP := durableConfig(t.TempDir())
	cfgP.ShardID = "s0"
	p, err := New(cfgP)
	if err != nil {
		t.Fatalf("primary New: %v", err)
	}
	t.Cleanup(func() { _ = p.Shutdown(context.Background()) })
	if err := p.WaitReady(context.Background()); err != nil {
		t.Fatalf("primary WaitReady: %v", err)
	}
	psrv := httptest.NewServer(p.Handler())
	t.Cleanup(psrv.Close)

	f, fsrv := newLoneFollower(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.FollowPrimary(ctx, psrv.URL, fsrv.URL); err != nil {
		t.Fatalf("FollowPrimary: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !p.ReplicaAttached() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never attached: %+v", p.ReplicaStatus())
		}
		time.Sleep(time.Millisecond)
	}
	return &replicaPair{primary: p, follower: f, primarySrv: psrv, followerSrv: fsrv}
}

// The full failover story, end to end: sessions acknowledged by the
// primary are durable on the follower before the ack; heartbeat loss
// drives the gateway to fence, promote, and re-point; every acked
// session's counters survive promotion with the same pairing keys; and
// the promoted follower serves new unlocks under the same gateway URL.
func TestReplicaFailoverEndToEnd(t *testing.T) {
	rp := newReplicaPair(t)

	clock := vtime.NewManualClock(time.Unix(2000, 0))
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:          []cluster.ShardConfig{{Name: "s0", BaseURL: rp.primarySrv.URL}},
		TotalDevices:    rp.primary.cfg.Devices,
		HeartbeatMisses: 2,
		Standbys:        map[string]string{"s0": rp.followerSrv.URL},
		Clock:           clock,
		Client:          &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	if err := g.Register(context.Background()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	// The standby refuses unlock traffic while following.
	if _, err := rp.follower.Submit(Request{Device: 0}); !errors.Is(err, ErrFollowing) {
		t.Fatalf("follower Submit: %v, want ErrFollowing", err)
	}
	resp, err := http.Get(rp.followerSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rs ReadyStatus
	_ = json.NewDecoder(resp.Body).Decode(&rs)
	resp.Body.Close()
	if rs.Status != "following" {
		t.Fatalf("follower /readyz status %q, want following", rs.Status)
	}

	// Acked traffic on the primary: synchronous replication mode, so
	// every session below is on the follower's disk before Wait returns.
	devices := rp.primary.cfg.Devices
	for round := 0; round < 2; round++ {
		for dev := 0; dev < devices; dev++ {
			runSessionOn(t, rp.primary, dev)
		}
	}
	before, ok := rp.primary.StoreState()
	if !ok {
		t.Fatal("primary has no store state")
	}

	// Kill the primary mid-life: process memory gone, port gone.
	rp.primary.Kill()
	rp.primarySrv.Close()

	// Two missed beats cross the threshold; the failover runs inside the
	// second HeartbeatOnce. Manual clock: no wall-clock sleeps anywhere.
	for i := 0; i < 2; i++ {
		clock.Advance(time.Second)
		g.HeartbeatOnce(context.Background())
	}
	if role := rp.follower.ReplicaStatus().Role; role != "promoted" {
		t.Fatalf("follower role %q after failover, want promoted", role)
	}
	top := g.Topology()
	if top.Shards[0].BaseURL != rp.followerSrv.URL {
		t.Fatalf("gateway still routes s0 to %s, want promoted follower %s", top.Shards[0].BaseURL, rp.followerSrv.URL)
	}

	// Zero acked-but-lost: every session acknowledged before the kill is
	// visible on the promoted follower — same keys, counters no lower.
	after, ok := rp.follower.StoreState()
	if !ok {
		t.Fatal("promoted follower has no store state")
	}
	for id, b := range before.Devices {
		a, ok := after.Devices[id]
		if !ok {
			t.Fatalf("device %d lost across failover", id)
		}
		if !bytes.Equal(a.Key, b.Key) {
			t.Errorf("device %d pairing key changed across failover", id)
		}
		if a.GenCounter < b.GenCounter || a.VerCounter < b.VerCounter {
			t.Errorf("device %d counters regressed across failover: gen %d->%d ver %d->%d",
				id, b.GenCounter, a.GenCounter, b.VerCounter, a.VerCounter)
		}
	}

	// The same gateway URL serves again: new unlocks land on the promoted
	// follower and advance its counters past the pre-kill state.
	for dev := 0; dev < devices; dev++ {
		resp, err := http.Post(gsrv.URL+"/v1/unlock", "application/json",
			strings.NewReader(`{"device": `+jsonInt(dev)+`}`))
		if err != nil {
			t.Fatalf("post-failover unlock device %d: %v", dev, err)
		}
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-failover unlock device %d: HTTP %d: %s", dev, resp.StatusCode, body.String())
		}
	}
	final, _ := rp.follower.StoreState()
	for dev := 0; dev < devices; dev++ {
		if final.Devices[dev].GenCounter <= before.Devices[dev].GenCounter {
			t.Errorf("device %d counter did not advance on the promoted follower", dev)
		}
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Promotion fences: after the promote order, appends from the old
// primary — whether at the stale epoch or the fenced one — answer 409,
// and the promote itself is idempotent. No replay window: a batch
// refused with 409 is never applied.
func TestReplicaPromoteFencesStalePrimary(t *testing.T) {
	rp := newReplicaPair(t)
	h := rp.follower.Handler()

	// A legitimate pre-promotion append flows (the live stream works).
	runSessionOn(t, rp.primary, 0)

	// Promote at epoch 2, as the gateway's failover would.
	total := rp.follower.cfg.Devices
	owned := make([]int, total)
	for i := range owned {
		owned[i] = i
	}
	ack, code := shardPost[cluster.PromoteResponse](t, h, "/replica/v1/promote",
		cluster.MsgPromote, &cluster.PromoteRequest{Epoch: 2, ShardID: "s0", TotalDevices: total, Owned: owned},
		cluster.MsgPromoteAck)
	if code != http.StatusOK || ack == nil || ack.ShardID != "s0" {
		t.Fatalf("promote answered %d (%+v)", code, ack)
	}
	// Idempotent retry (the gateway lost the ack).
	ack2, code := shardPost[cluster.PromoteResponse](t, h, "/replica/v1/promote",
		cluster.MsgPromote, &cluster.PromoteRequest{Epoch: 2, ShardID: "s0", TotalDevices: total, Owned: owned},
		cluster.MsgPromoteAck)
	if code != http.StatusOK || ack2 == nil {
		t.Fatalf("retried promote answered %d", code)
	}

	followerCounter := func(id int) uint64 {
		st, _ := rp.follower.StoreState()
		return st.Devices[id].GenCounter
	}
	preAppend := followerCounter(0)

	// A straggling append from the dead primary, on a stream of its own:
	// stale epoch → a 409 error frame (the only status the sender reads as
	// ErrFenced), and the batch body must not have advanced any durable
	// counter.
	straggler := &cluster.ReplicaAppendRequest{
		Epoch: 1, ShardID: "s0", BatchSeq: 999, FirstSeq: 1000, LastSeq: 1000,
		Records: []store.Record{{Seq: 1000, Device: &store.DeviceState{ID: 0, Key: []byte{9}, GenCounter: 1 << 40}}},
	}
	st := testStream(t, rp.followerSrv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := st.Send(ctx, straggler); !errors.Is(err, replica.ErrFenced) {
		t.Fatalf("stale-epoch append answered %v, want a 409 refusal", err)
	}
	straggler.Epoch = 2 // even the fenced epoch: a promoted daemon takes no appends
	if _, err := st.Send(ctx, straggler); !errors.Is(err, replica.ErrFenced) {
		t.Fatalf("post-promotion append answered %v, want a 409 refusal", err)
	}
	if got := followerCounter(0); got != preAppend {
		t.Fatalf("fenced append reached the store: counter %d -> %d", preAppend, got)
	}
	// Refusals keep the stream open.
	if n := st.metric.Value(); n != 1 {
		t.Fatalf("straggler stream dialled %d times, want 1", n)
	}
	// The old primary's own stream was cut at promotion; its redial meets
	// the fence, so its waiters fail instead of acknowledging.
	awaitPrimaryFenced(t, rp.primary)
	if got := followerCounter(0); got != preAppend {
		t.Fatalf("old primary's batch reached the promoted store: counter %d -> %d", preAppend, got)
	}

	// The promoted daemon serves.
	sess := runSessionOn(t, rp.follower, 0)
	if sess.Err() != nil {
		t.Fatalf("post-promotion session failed: %v", sess.Err())
	}
}

// The primary side of the fence: once its appends bounce 409, the
// shipper flips to fenced and in-flight sessions fail with ErrFenced
// rather than acknowledging state the cluster has moved past.
func TestReplicaPrimaryFencedFailsSessions(t *testing.T) {
	rp := newReplicaPair(t)

	// Promote the follower out from under the primary.
	total := rp.follower.cfg.Devices
	owned := make([]int, total)
	for i := range owned {
		owned[i] = i
	}
	ack, code := shardPost[cluster.PromoteResponse](t, rp.follower.Handler(), "/replica/v1/promote",
		cluster.MsgPromote, &cluster.PromoteRequest{Epoch: 2, ShardID: "s0", TotalDevices: total, Owned: owned},
		cluster.MsgPromoteAck)
	if code != http.StatusOK || ack == nil {
		t.Fatalf("promote answered %d", code)
	}

	// Sessions on the stale primary must now fail: the commit lands in
	// its local WAL, but replication bounces 409 and the ack is withheld.
	awaitPrimaryFenced(t, rp.primary)
}

// awaitPrimaryFenced runs sessions on a primary whose follower was
// promoted until one fails with ErrFenced, then checks the shipper
// stopped in the fenced state.
func awaitPrimaryFenced(t *testing.T, p *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess, err := p.Submit(Request{Device: 0})
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			werr := sess.Wait(ctx)
			cancel()
			err = werr
			if err == nil {
				err = sess.Err()
			}
		}
		if errors.Is(err, ErrFenced) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale primary still acknowledging sessions: err=%v status=%+v", err, p.ReplicaStatus())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.ReplicaStatus().Shipper; st == nil || st.State != "fenced" {
		t.Fatalf("shipper not fenced: %+v", p.ReplicaStatus())
	}
}
