package replica

import (
	"context"
	"errors"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/fault"
	"wearlock/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// directSend wires a shipper straight into a receiver — the transport
// the service layer adds (HTTP, status-code mapping) is exactly what
// this package does not know about.
func directSend(recv *Receiver) func(time.Time, *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
	return func(_ time.Time, req *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
		ack, err := recv.Apply(req)
		return &ack, err
	}
}

func deviceKey(id int) []byte { return []byte{0xA0, byte(id)} }

func seedDevices(t *testing.T, s *store.Store, n int) {
	t.Helper()
	for id := 0; id < n; id++ {
		err := s.CommitDevice(store.DeviceState{
			ID: id, Key: deviceKey(id), GenCounter: 1, VerCounter: 1, RngDraws: 4,
		})
		if err != nil {
			t.Fatalf("seed device %d: %v", id, err)
		}
	}
}

func shipperConfig(primary *store.Store, recv *Receiver, devices int) ShipperConfig {
	ids := make([]int, devices)
	for i := range ids {
		ids[i] = i
	}
	return ShipperConfig{
		Store:        primary,
		Devices:      ids,
		ServiceState: func() store.ServiceState { return store.ServiceState{Seq: 42, NextDev: 2} },
		Epoch:        func() uint64 { return 1 },
		ShardID:      "s0",
		Send:         directSend(recv),
		RetryDelay:   time.Millisecond,
	}
}

// assertConverged compares the replicated devices on the follower store
// against the primary's merged state.
func assertConverged(t *testing.T, primary, follower *store.Store, devices int) {
	t.Helper()
	pst := primary.State()
	fst := follower.State()
	for id := 0; id < devices; id++ {
		p, ok := pst.Devices[id]
		if !ok {
			t.Fatalf("primary lost device %d", id)
		}
		f, ok := fst.Devices[id]
		if !ok {
			t.Fatalf("follower missing device %d", id)
		}
		if f.GenCounter != p.GenCounter || f.VerCounter != p.VerCounter || f.RngDraws != p.RngDraws {
			t.Errorf("device %d diverged: primary gen=%d ver=%d draws=%d, follower gen=%d ver=%d draws=%d",
				id, p.GenCounter, p.VerCounter, p.RngDraws, f.GenCounter, f.VerCounter, f.RngDraws)
		}
	}
}

// Bootstrap plus live tail: a fresh follower converges on the primary's
// pre-existing state, then tracks every subsequent commit; the
// synchronous WaitReplicated releases only once the follower's own
// store holds the record.
func TestShipperBootstrapAndLiveConvergence(t *testing.T) {
	const devices = 4
	primary := openStore(t)
	follower := openStore(t)
	seedDevices(t, primary, devices)

	recv := NewReceiver(ReceiverConfig{Store: follower, FollowerID: "f0"})
	sh := StartShipper(shipperConfig(primary, recv, devices))
	defer sh.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitReplicated(ctx, primary.State().LastSeq); err != nil {
		t.Fatalf("bootstrap never replicated: %v", err)
	}
	assertConverged(t, primary, follower, devices)
	if got := follower.State().Service.Seq; got != 42 {
		t.Errorf("follower service seq %d, want the bootstrapped 42", got)
	}

	// Live tail: each commit is covered by an ack before WaitReplicated
	// releases, so the follower read below can never be early.
	for round := 0; round < 5; round++ {
		for id := 0; id < devices; id++ {
			h := primary.CommitDeviceAsync(store.DeviceState{
				ID: id, Key: deviceKey(id),
				GenCounter: uint64(round + 2), VerCounter: uint64(round + 2), RngDraws: uint64(8 * (round + 2)),
			})
			if err := h.Wait(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if err := sh.WaitReplicated(ctx, h.Seq()); err != nil {
				t.Fatalf("WaitReplicated(%d): %v", h.Seq(), err)
			}
			f, ok := follower.Device(id)
			if !ok || f.GenCounter < uint64(round+2) {
				t.Fatalf("acked commit not on follower: device %d round %d state %+v", id, round, f)
			}
		}
	}
	assertConverged(t, primary, follower, devices)
	if st := sh.Status(); st.State != "attached" || st.Shipped == 0 {
		t.Errorf("unexpected shipper status after live streaming: %+v", st)
	}
}

// The chaos plan's three damage kinds — dropped, duplicated, truncated
// batches — all converge: drops force a snapshot resync, duplicates ack
// idempotently, truncations are refused as corruption and re-shipped
// intact. Counters never regress on the follower at any point.
func TestShipperChaosConvergence(t *testing.T) {
	const devices = 3
	// The committer callback dawdles so that the paired async commits
	// below coalesce into multi-record batches — truncation needs a
	// record to cut.
	primary, err := store.Open(store.Options{
		Dir: t.TempDir(), NoFsync: true,
		OnCommitBatch: func(int) { time.Sleep(2 * time.Millisecond) },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = primary.Close() })
	follower := openStore(t)
	seedDevices(t, primary, devices)

	recv := NewReceiver(ReceiverConfig{Store: follower, FollowerID: "f0"})
	cfg := shipperConfig(primary, recv, devices)
	cfg.Seed = 7
	cfg.Chaos = &fault.Schedule{Rules: []fault.Rule{
		{Kind: fault.KindReplDropBatch, Prob: 0.3},
		{Kind: fault.KindReplDupBatch, Prob: 0.3},
		{Kind: fault.KindReplTruncBatch, Prob: 0.3},
	}}
	sh := StartShipper(cfg)
	defer sh.Close()

	// Let the bootstrap finish before generating live traffic: batches
	// committed from here on flow through the tail and roll the chaos
	// plan; anything earlier would hide inside the snapshot.
	bctx, bcancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := sh.WaitReplicated(bctx, primary.State().LastSeq); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	bcancel()

	floor := make(map[int]uint64, devices)
	for round := 0; round < 40; round++ {
		id := round % devices
		// Two records per batch so truncation has a record to cut.
		h1 := primary.CommitDeviceAsync(store.DeviceState{
			ID: id, Key: deviceKey(id), GenCounter: uint64(round + 2), VerCounter: 1, RngDraws: 4,
		})
		h2 := primary.CommitDeviceAsync(store.DeviceState{
			ID: (id + 1) % devices, Key: deviceKey((id + 1) % devices), GenCounter: uint64(round + 2), VerCounter: 1, RngDraws: 4,
		})
		if err := h1.Wait(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if err := h2.Wait(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		for d := 0; d < devices; d++ {
			f, ok := follower.Device(d)
			if ok && f.GenCounter < floor[d] {
				t.Fatalf("follower device %d counter regressed %d -> %d", d, floor[d], f.GenCounter)
			}
			if ok {
				floor[d] = f.GenCounter
			}
		}
	}
	// Converge. A dropped batch surfaces only when the next batch hits the
	// gap, so keep flushing until one full batch gets through and its ack
	// (or the resync it triggers) covers everything committed so far.
	deadline := time.Now().Add(30 * time.Second)
	converged := false
	for flush := 0; time.Now().Before(deadline); flush++ {
		h := primary.CommitDeviceAsync(store.DeviceState{
			ID: 0, Key: deviceKey(0), GenCounter: uint64(100 + flush), VerCounter: 1, RngDraws: 4,
		})
		if err := h.Wait(); err != nil {
			t.Fatalf("flush commit: %v", err)
		}
		wctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		err := sh.WaitReplicated(wctx, h.Seq())
		cancel()
		if err == nil {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("stream never converged under chaos: %+v", sh.Status())
	}
	assertConverged(t, primary, follower, devices)
	st := sh.Status()
	if st.Dropped == 0 || st.Duped == 0 || st.Truncated == 0 {
		t.Errorf("chaos schedule armed nothing: %+v (want all three kinds exercised)", st)
	}
	if st.Dropped > 0 && st.Resyncs == 0 {
		t.Errorf("dropped batches without a resync: %+v", st)
	}
}

// A fenced refusal is terminal: the shipper stops and every sync waiter
// fails with ErrFenced — a stale primary must not acknowledge sessions
// past the takeover.
func TestShipperFencedFailsWaiters(t *testing.T) {
	primary := openStore(t)
	seedDevices(t, primary, 1)
	cfg := shipperConfig(primary, nil, 1)
	cfg.Send = func(time.Time, *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
		return nil, ErrFenced
	}
	sh := StartShipper(cfg)
	defer sh.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitReplicated(ctx, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("WaitReplicated on a fenced shipper: %v, want ErrFenced", err)
	}
	if !sh.Fenced() {
		t.Error("shipper not reporting fenced")
	}
}

// An unreachable follower detaches the shipper after the retry budget:
// waiters release (the documented allowed-loss window — the primary
// stays available without its follower) instead of hanging the ack path.
func TestShipperDetachReleasesWaiters(t *testing.T) {
	primary := openStore(t)
	seedDevices(t, primary, 1)
	cfg := shipperConfig(primary, nil, 1)
	cfg.DetachAfter = 2
	cfg.Send = func(time.Time, *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
		return nil, errors.New("connection refused")
	}
	sh := StartShipper(cfg)
	defer sh.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitReplicated(ctx, 99); err != nil {
		t.Fatalf("WaitReplicated on a detached shipper: %v, want nil (allowed-loss window)", err)
	}
}

// Closing the shipper releases waiters and is idempotent.
func TestShipperCloseReleasesWaiters(t *testing.T) {
	primary := openStore(t)
	cfg := shipperConfig(primary, nil, 1)
	block := make(chan struct{})
	cfg.Send = func(time.Time, *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
		<-block
		return nil, errors.New("follower unreachable")
	}
	sh := StartShipper(cfg)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- sh.WaitReplicated(ctx, 1)
	}()
	close(block)
	sh.Close()
	sh.Close()
	if err := <-done; err != nil {
		t.Fatalf("WaitReplicated after Close: %v, want nil", err)
	}
}

// liveBatch builds a well-formed live append for protocol tests.
func liveBatch(batchSeq, firstSeq uint64, devs ...store.DeviceState) *cluster.ReplicaAppendRequest {
	req := &cluster.ReplicaAppendRequest{
		Epoch: 1, ShardID: "s0", BatchSeq: batchSeq, FirstSeq: firstSeq,
	}
	for i := range devs {
		d := devs[i]
		req.Records = append(req.Records, store.Record{Seq: firstSeq + uint64(i), Device: &d})
	}
	req.LastSeq = firstSeq + uint64(len(devs)) - 1
	return req
}

// The receiver's stream protocol: live before any reset is out-of-sync;
// a reset adopts its batch sequence as the base; gaps are refused;
// duplicates ack idempotently without re-applying; a body contradicting
// its header is corruption and is never applied.
func TestReceiverStreamProtocol(t *testing.T) {
	follower := openStore(t)
	recv := NewReceiver(ReceiverConfig{Store: follower, FollowerID: "f0"})

	if _, err := recv.Apply(liveBatch(1, 1, store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 1})); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("live batch before reset: %v, want ErrOutOfSync", err)
	}

	reset := &cluster.ReplicaAppendRequest{
		Epoch: 1, ShardID: "s0", BatchSeq: 5, Reset: true, FirstSeq: 1, LastSeq: 2,
		Records: []store.Record{
			{Seq: 1, Device: &store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 3}},
			{Seq: 2, Device: &store.DeviceState{ID: 1, Key: deviceKey(1), GenCounter: 3}},
		},
	}
	ack, err := recv.Apply(reset)
	if err != nil {
		t.Fatalf("reset: %v", err)
	}
	if ack.ExpectedBatch != 6 {
		t.Fatalf("reset at batch 5 set expectation %d, want 6", ack.ExpectedBatch)
	}

	if _, err := recv.Apply(liveBatch(8, 3, store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 4})); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("gapped batch: %v, want ErrOutOfSync", err)
	}

	good := liveBatch(6, 3, store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 4})
	if _, err := recv.Apply(good); err != nil {
		t.Fatalf("in-order batch: %v", err)
	}
	// Duplicate: acknowledged, expectation unchanged.
	ack, err = recv.Apply(good)
	if err != nil {
		t.Fatalf("duplicate batch: %v", err)
	}
	if ack.ExpectedBatch != 7 {
		t.Fatalf("duplicate moved expectation to %d, want 7", ack.ExpectedBatch)
	}

	// Truncated body: header claims two records, body carries one.
	trunc := liveBatch(7, 4,
		store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 9},
		store.DeviceState{ID: 1, Key: deviceKey(1), GenCounter: 9})
	trunc.Records = trunc.Records[:1]
	if _, err := recv.Apply(trunc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated batch: %v, want ErrCorrupt", err)
	}
	if d, _ := follower.Device(0); d.GenCounter != 4 {
		t.Fatalf("refused truncated batch was partially applied: gen=%d, want 4", d.GenCounter)
	}
	// Empty live batches and non-consecutive record seqs are corruption too.
	empty := &cluster.ReplicaAppendRequest{Epoch: 1, BatchSeq: 7, FirstSeq: 4, LastSeq: 4}
	if _, err := recv.Apply(empty); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty live batch: %v, want ErrCorrupt", err)
	}
	skewed := liveBatch(7, 4, store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 9})
	skewed.Records[0].Seq = 9
	if _, err := recv.Apply(skewed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("seq-skewed batch: %v, want ErrCorrupt", err)
	}
}

// A stale reset — a resync shipping state older than what live batches
// already applied — can never regress a counter: the monotone merge
// floors every counter at its high-water mark.
func TestReceiverStaleResetNeverRegresses(t *testing.T) {
	follower := openStore(t)
	recv := NewReceiver(ReceiverConfig{Store: follower, FollowerID: "f0"})

	reset := &cluster.ReplicaAppendRequest{
		Epoch: 1, BatchSeq: 0, Reset: true, FirstSeq: 1, LastSeq: 1,
		Records: []store.Record{{Seq: 1, Device: &store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 2, VerCounter: 2, RngDraws: 8}}},
	}
	if _, err := recv.Apply(reset); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, err := recv.Apply(liveBatch(1, 2, store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 10, VerCounter: 10, RngDraws: 40})); err != nil {
		t.Fatalf("live: %v", err)
	}
	stale := &cluster.ReplicaAppendRequest{
		Epoch: 1, BatchSeq: 0, Reset: true, FirstSeq: 1, LastSeq: 1,
		Records: []store.Record{{Seq: 1, Device: &store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 5, VerCounter: 5, RngDraws: 20}}},
	}
	if _, err := recv.Apply(stale); err != nil {
		t.Fatalf("stale reset: %v", err)
	}
	d, ok := follower.Device(0)
	if !ok {
		t.Fatal("device 0 missing")
	}
	if d.GenCounter != 10 || d.VerCounter != 10 || d.RngDraws != 40 {
		t.Fatalf("stale reset regressed the device: %+v", d)
	}
}
