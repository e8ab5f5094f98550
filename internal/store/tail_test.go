package store

import (
	"encoding/binary"
	"sync"
	"testing"
)

func openTailStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// The committer's tail feed delivers every durable batch, in commit
// order, with a gapless batch sequence starting right after the
// subscription base, and each batch's records carry consecutive
// sequences matching the FirstSeq/LastSeq header — the invariants the
// replication receiver's corruption check is built on.
func TestTailOrderedBatches(t *testing.T) {
	s := openTailStore(t)
	sub := s.SubscribeTail(64)
	defer sub.Close()

	const commits = 20
	handles := make([]*CommitHandle, 0, commits)
	for i := 0; i < commits; i++ {
		handles = append(handles, s.CommitDeviceAsync(DeviceState{ID: i % 3, GenCounter: uint64(i + 1)}))
	}
	var lastSeq uint64
	for _, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if h.Seq() > lastSeq {
			lastSeq = h.Seq()
		}
	}

	expectedBatch := sub.Base() + 1
	var nextSeq uint64 = 1
	seen := 0
	for seen < commits {
		cb, ok := <-sub.C()
		if !ok {
			t.Fatalf("tail closed after %d of %d records (lagged=%v)", seen, commits, sub.Lagged())
		}
		if cb.BatchSeq != expectedBatch {
			t.Fatalf("batch seq %d, want %d (gapless commit order)", cb.BatchSeq, expectedBatch)
		}
		expectedBatch++
		if len(cb.Records) == 0 {
			t.Fatal("published batch carries no records")
		}
		if cb.FirstSeq != cb.Records[0].Seq || cb.LastSeq != cb.Records[len(cb.Records)-1].Seq {
			t.Fatalf("batch header [%d,%d] does not bound records [%d,%d]",
				cb.FirstSeq, cb.LastSeq, cb.Records[0].Seq, cb.Records[len(cb.Records)-1].Seq)
		}
		for i, rec := range cb.Records {
			if rec.Seq != nextSeq {
				t.Fatalf("record %d of batch %d has seq %d, want %d (consecutive)",
					i, cb.BatchSeq, rec.Seq, nextSeq)
			}
			nextSeq++
			seen++
		}
	}
	if nextSeq-1 != lastSeq {
		t.Errorf("tail delivered through seq %d, committed through %d", nextSeq-1, lastSeq)
	}
	if sub.Lagged() {
		t.Error("subscription lagged despite ample buffer")
	}
}

// Tail records are the committer's own copies, never the merged state:
// mutating a delivered record must not reach it.
func TestTailRecordsAreCopies(t *testing.T) {
	s := openTailStore(t)
	sub := s.SubscribeTail(4)
	defer sub.Close()
	if err := s.CommitDevice(DeviceState{ID: 0, Key: []byte{1, 2, 3}, GenCounter: 7}); err != nil {
		t.Fatalf("CommitDevice: %v", err)
	}
	cb := <-sub.C()
	if len(cb.Records) != 1 || cb.Records[0].Device == nil {
		t.Fatalf("unexpected batch shape: %+v", cb)
	}
	cb.Records[0].Device.Key[0] = 0xFF
	cb.Records[0].Device.GenCounter = 0
	d, ok := s.Device(0)
	if !ok {
		t.Fatal("device 0 missing")
	}
	if d.Key[0] != 1 || d.GenCounter != 7 {
		t.Errorf("mutating a tail record reached the merged state: %+v", d)
	}
}

// A subscriber that stops draining is dropped, not waited on: the
// committer never blocks, the channel closes, and Lagged reports why —
// the shipper's signal to resync from a snapshot.
func TestTailLagDropsSubscriber(t *testing.T) {
	s := openTailStore(t)
	sub := s.SubscribeTail(1)
	// Synchronous commits: each is its own batch (queue depth 1 commits
	// immediately), so the second publish finds the buffer full.
	for i := 0; i < 4; i++ {
		if err := s.CommitDevice(DeviceState{ID: 0, GenCounter: uint64(i + 1)}); err != nil {
			t.Fatalf("CommitDevice %d: %v", i, err)
		}
	}
	if !sub.Lagged() {
		t.Fatal("overflowed subscription not marked lagged")
	}
	// Drain to the close: delivery stopped at the overflow, channel closed.
	n := 0
	for range sub.C() {
		n++
	}
	if n != 1 {
		t.Errorf("lagged subscriber drained %d batches, want exactly its buffer (1)", n)
	}
	// The committer kept going without the dead subscriber.
	if d, ok := s.Device(0); !ok || d.GenCounter != 4 {
		t.Errorf("commits after lag drop did not land: %+v", d)
	}
}

// Closing the store closes every live subscription; subscribing after
// close yields an immediately-closed channel. Neither path reports
// lagged — the subscriber did nothing wrong.
func TestTailClosedOnShutdown(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sub := s.SubscribeTail(4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel still open after store close")
	}
	if sub.Lagged() {
		t.Error("shutdown-closed subscription reported lagged")
	}
	late := s.SubscribeTail(4)
	if _, ok := <-late.C(); ok {
		t.Fatal("subscribing on a closed store returned a live channel")
	}
}

// Close is idempotent and safe concurrently with publication: closing a
// subscription twice or alongside commits must not panic or double-close.
func TestTailCloseIdempotent(t *testing.T) {
	s := openTailStore(t)
	sub := s.SubscribeTail(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			_ = s.CommitDevice(DeviceState{ID: 1, GenCounter: uint64(i + 1)})
		}
	}()
	sub.Close()
	sub.Close()
	<-done
	if _, ok := <-sub.C(); ok {
		// Drain whatever was buffered before the close; the channel must
		// still end closed.
		for range sub.C() {
		}
	}
}

// lentRecord is a delivered record's content at receipt.
type lentRecord struct {
	seq, gen uint64
	id       int
	key      [8]byte
	svc      uint64
}

func readLent(rec *Record) lentRecord {
	l := lentRecord{seq: rec.Seq, id: rec.Device.ID, gen: rec.Device.GenCounter, svc: rec.Service.Seq}
	copy(l.key[:], rec.Device.Key)
	return l
}

// Lent tail records stay put while a subscriber holds them (run with
// -race -count=10): the subscriber keeps up to three batches out while
// the committer runs on, lags and resubscribes with batches still out,
// and closes its subscription in the middle of relaying one. Every held
// record reads at release what it read at receipt, each key is the one
// committed with its counter, and once every batch is back all the
// store's loans are free again.
func TestTailLentRecordsStayPut(t *testing.T) {
	const writers, commits = 8, 300
	s := openTailStore(t)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= commits; i++ {
				d := DeviceState{ID: w, GenCounter: uint64(i), Key: make([]byte, 8)}
				binary.LittleEndian.PutUint64(d.Key, uint64(i)*uint64(w+1))
				if err := s.Commit(&d, &ServiceState{Seq: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	type held struct {
		sub  *TailSub
		cb   CommittedBatch
		seen []lentRecord
	}
	check := func(h held) {
		for i := range h.cb.Records {
			if got := readLent(&h.cb.Records[i]); got != h.seen[i] {
				t.Fatalf("batch %d record %d changed while held: %+v, was %+v", h.cb.BatchSeq, i, got, h.seen[i])
			}
		}
		h.sub.Release(h.cb)
	}
	var out []held
	sub := s.SubscribeTail(2)
	batches, resubs, closes := 0, 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case cb, ok := <-sub.C():
			if !ok {
				// Lagged: resubscribe with the batches already received
				// still out, as the shipper's resync does.
				resubs++
				sub.Close()
				sub = s.SubscribeTail(2)
				continue
			}
			batches++
			h := held{sub: sub, cb: cb}
			for i := range cb.Records {
				rec := &cb.Records[i]
				l := readLent(rec)
				if binary.LittleEndian.Uint64(l.key[:]) != l.gen*uint64(l.id+1) {
					t.Fatalf("record %d carries key %x with counter %d", l.seq, l.key, l.gen)
				}
				h.seen = append(h.seen, l)
			}
			out = append(out, h)
			if batches%17 == 0 {
				// Close in the middle of relaying: the held batch is still
				// the subscriber's to read and to release.
				closes++
				sub.Close()
				check(h)
				out = out[:len(out)-1]
				sub = s.SubscribeTail(2)
			}
			if len(out) > 3 {
				check(out[0])
				out = out[1:]
			}
		}
	}
	for _, h := range out {
		check(h)
	}
	sub.Close()
	if batches == 0 || resubs+closes == 0 {
		t.Fatalf("%d batches, %d lag resubscriptions, %d closes: the drill did not run", batches, resubs, closes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.loans) != s.nloans {
		t.Fatalf("%d of %d tail loans free after every batch came back", len(s.loans), s.nloans)
	}
	t.Logf("%d batches, %d lag resubscriptions, %d closes, %d loans", batches, resubs, closes, s.nloans)
}
