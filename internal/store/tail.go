package store

// WAL tail subscription: the replication primary's feed. The group
// committer publishes every durable batch — after the fsync, in commit
// order, tagged with a monotone batch sequence — to each subscriber's
// buffered channel. Publication never blocks the committer: a
// subscriber that falls behind its buffer is marked lagged and its
// channel is closed, and the shipper recovers by resubscribing and
// re-shipping a snapshot (ExportRange), which the idempotent monotone
// merge makes safe to overlap with live batches.
//
// A batch's records are lent, not copied (DESIGN.md §16): they are the
// committer's own by-value records, which it leaves alone until every
// subscriber that received the batch has given it back with Release.
// The committer then takes a new batch buffer from a small ring of
// loans; when none is free it publishes a deep copy instead.

// CommittedBatch is one durable group-commit batch as seen by a tail
// subscriber. Seq values are the source store's record sequence numbers,
// consecutive within the batch. Records, with the device and fleet
// states they point at, are the committer's own, lent until the
// subscriber calls Release (or a deep copy the store keeps no hold on):
// read-only, and not to be touched after Release.
type CommittedBatch struct {
	// BatchSeq is the committer's batch sequence: monotone, gapless
	// across every batch that carried at least one live record.
	BatchSeq uint64
	// FirstSeq/LastSeq bound the record sequences in this batch.
	FirstSeq uint64
	LastSeq  uint64
	Records  []Record
	// loan is the lent storage Records live in; nil for a copy.
	loan *tailLoan
}

// maxTailLoans bounds the batches a store lends at once; a batch
// committed while all of them are out is published as a copy.
const maxTailLoans = 8

// tailLoan is one committed batch lent to tail subscribers: the
// committer's batch storage its records point into, and the record list
// handed out. While refs > 0 subscribers hold it; at zero the storage is
// free for a later batch. Guarded by Store.mu.
type tailLoan struct {
	batch []pending
	recs  []Record
	refs  int
}

// TailSub is one subscription to the committer's batch stream.
type TailSub struct {
	s    *Store
	ch   chan CommittedBatch
	base uint64
	// guarded by s.mu
	lagged bool
	closed bool
}

// C delivers committed batches in commit order. The channel is closed
// when the subscription lags (check Lagged), the subscriber calls
// Close, or the store shuts down.
func (t *TailSub) C() <-chan CommittedBatch { return t.ch }

// Base is the committer's batch sequence at subscription time: the
// first batch delivered on C has BatchSeq == Base()+1, and a snapshot
// exported after subscribing covers everything at or before it.
func (t *TailSub) Base() uint64 { return t.base }

// Lagged reports whether the committer dropped this subscription
// because its channel buffer was full. Once lagged, the channel is
// closed and the subscriber must resync from a snapshot.
func (t *TailSub) Lagged() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.lagged
}

// Close detaches the subscription and gives back every batch still
// buffered on C, which is closed and empty afterwards; batches already
// received stay the subscriber's to Release. Safe to call more than once
// and concurrently with publication.
func (t *TailSub) Close() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.dropTailLocked(t)
	for cb := range t.ch {
		t.s.returnLoanLocked(cb.loan)
	}
}

// Release gives a batch received on C back to the store once the
// subscriber is done with it: call it once per received batch, after the
// last read of its records. Releasing is optional — a batch never
// released is garbage collected, and the store copies batches while all
// its loans are out — but a subscriber that releases lets the committer
// publish without copying.
func (t *TailSub) Release(cb CommittedBatch) {
	if cb.loan == nil {
		return
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.returnLoanLocked(cb.loan)
}

// returnLoanLocked drops one subscriber's hold on l (nil: a copy) and
// frees it once no subscriber holds it.
func (s *Store) returnLoanLocked(l *tailLoan) {
	if l == nil {
		return
	}
	if l.refs <= 0 {
		panic("store: tail batch released more often than delivered")
	}
	if l.refs--; l.refs == 0 {
		s.loans = append(s.loans, l)
	}
}

// SubscribeTail registers a tail subscriber whose channel buffers up
// to buf batches (minimum 1). Subscribe before ExportRange: every
// batch committed after this call is delivered on the channel, and the
// export then covers everything earlier, so the union has no gap and
// the overlap is idempotent under the monotone merge.
func (s *Store) SubscribeTail(buf int) *TailSub {
	if buf < 1 {
		buf = 1
	}
	t := &TailSub{ch: make(chan CommittedBatch, buf)}
	t.s = s
	s.mu.Lock()
	defer s.mu.Unlock()
	t.base = s.tailSeq
	if s.closed {
		t.closed = true
		close(t.ch)
		return t
	}
	if s.tailSubs == nil {
		s.tailSubs = make(map[*TailSub]struct{})
	}
	s.tailSubs[t] = struct{}{}
	return t
}

// publishTailLocked hands one durable batch, the live records of batch,
// to every subscriber. Called by the committer with s.mu held,
// immediately after the batch was applied to the merged state, so
// delivery order equals commit order.
//
// With a loan free it lends batch's records and returns the loan's free
// storage for the committer's next batch (lent is true); otherwise it
// publishes a deep copy and the committer keeps batch.
func (s *Store) publishTailLocked(batch []pending, live int) (next []pending, lent bool) {
	cb := CommittedBatch{BatchSeq: s.tailSeq}
	if l := s.takeLoanLocked(); l != nil {
		recs := l.recs[:0]
		for i := range batch {
			if batch[i].ok {
				recs = append(recs, batch[i].rec)
			}
		}
		next = l.batch
		clear(next) // what the loan's last batch left
		l.batch, l.recs = batch, recs
		cb.Records, cb.loan = recs, l
		lent = true
	} else {
		cb.Records = make([]Record, 0, live)
		for i := range batch {
			if batch[i].ok {
				cb.Records = append(cb.Records, batch[i].rec.clone())
			}
		}
	}
	cb.FirstSeq = cb.Records[0].Seq
	cb.LastSeq = cb.Records[len(cb.Records)-1].Seq
	for t := range s.tailSubs {
		select {
		case t.ch <- cb:
			if cb.loan != nil {
				cb.loan.refs++
			}
		default:
			t.lagged = true
			s.dropTailLocked(t)
		}
	}
	if l := cb.loan; l != nil && l.refs == 0 {
		s.loans = append(s.loans, l) // every subscriber lagged: nobody holds it
	}
	return next, lent
}

// takeLoanLocked returns a free loan, a new one while fewer than
// maxTailLoans exist, or nil.
func (s *Store) takeLoanLocked() *tailLoan {
	if n := len(s.loans); n > 0 {
		l := s.loans[n-1]
		s.loans[n-1] = nil
		s.loans = s.loans[:n-1]
		return l
	}
	if s.nloans < maxTailLoans {
		s.nloans++
		return new(tailLoan)
	}
	return nil
}

// dropTailLocked removes a subscription and closes its channel once.
func (s *Store) dropTailLocked(t *TailSub) {
	if t.closed {
		return
	}
	t.closed = true
	delete(s.tailSubs, t)
	close(t.ch)
}

// closeTailsLocked detaches every subscriber (store shutdown).
func (s *Store) closeTailsLocked() {
	for t := range s.tailSubs {
		s.dropTailLocked(t)
	}
}
