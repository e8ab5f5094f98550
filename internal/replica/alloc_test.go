package replica

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/store"
)

// wireSend carries each batch as the replica stream does, minus the
// socket: the batch frame encoded into a retained buffer and decoded
// into the follower's reused request, applied, and the ack framed and
// decoded into the primary's reused ack.
func wireSend(recv *Receiver) func(time.Time, *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
	var (
		out, back []byte
		batch     cluster.ReplicaAppendRequest
		ack, resp cluster.ReplicaAppendResponse
	)
	return func(_ time.Time, req *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
		var err error
		if out, err = cluster.AppendFrame(out[:0], cluster.MsgReplicaAppend, req); err != nil {
			return nil, err
		}
		in, err := cluster.DecodeAsInto(out, cluster.MsgReplicaAppend, &batch)
		if err != nil {
			return nil, err
		}
		if ack, err = recv.Apply(in); err != nil {
			return nil, err
		}
		if back, err = cluster.AppendFrame(back[:0], cluster.MsgReplicaAppendAck, &ack); err != nil {
			return nil, err
		}
		return cluster.DecodeAsInto(back, cluster.MsgReplicaAppendAck, &resp)
	}
}

// One session's record shipped and applied — committed on the primary,
// relayed off its tail, decoded, committed on the follower and acked,
// the session waiting for that ack — stays under a fixed allocation
// count. What is left is the tail's copy of the batch (its record list,
// device state and key, and fleet state), which the shipper reads after
// the committer has moved on.
func TestShipApplyAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 4
	primary, follower := openStore(t), openStore(t)
	recv := NewReceiver(ReceiverConfig{Store: follower, FollowerID: "standby"})
	cfg := shipperConfig(primary, recv, 1)
	cfg.Send = wireSend(recv)
	sh := StartShipper(cfg)
	defer sh.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sh.WaitAttached(ctx); err != nil {
		t.Fatal(err)
	}
	d := store.DeviceState{ID: 0, Key: deviceKey(0), GenCounter: 1}
	sv := store.ServiceState{Seq: 1}
	ship := func() {
		d.GenCounter++
		sv.Seq++
		h := primary.CommitAsync(&d, &sv)
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := sh.WaitReplicated(ctx, h.Seq()); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for i := 0; i < 10; i++ {
		ship()
	}
	if allocs := testing.AllocsPerRun(200, ship); allocs > ceiling {
		t.Errorf("ship and apply of one batch allocated %.1f objects, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.1f allocations per shipped and applied batch", allocs)
	}
	if got, _ := follower.Device(0); got.GenCounter != d.GenCounter {
		t.Fatalf("follower at gen %d, primary at %d", got.GenCounter, d.GenCounter)
	}
}

// Waiters leaving on their contexts race the acks that wake them (run
// with -race -count=10). Each wait returns once, and every channel the
// shipper keeps for reuse is empty and registered nowhere, so a reused
// channel never wakes a later wait with an earlier ack.
func TestShipperAwaitReusesChannels(t *testing.T) {
	const waiters, acks = 8, 300
	sh := &Shipper{state: stateAttached}
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(1); seq <= acks; seq++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (seq+uint64(g))%3 == 0 {
					go cancel()
				}
				if err := sh.WaitReplicated(ctx, seq); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("WaitReplicated(%d): %v", seq, err)
				}
				cancel()
			}
		}(g)
	}
	for seq := uint64(1); seq <= acks; seq++ {
		sh.setAcked(seq)
		runtime.Gosched()
	}
	wg.Wait()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.waiters) != 0 {
		t.Fatalf("%d waiters still registered", len(sh.waiters))
	}
	for _, ch := range sh.idle {
		if len(ch) != 0 {
			t.Fatal("a reusable wait channel holds a stale wake-up")
		}
	}
}
