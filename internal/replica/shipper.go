package replica

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/fault"
	"wearlock/internal/store"
)

// Shipper states. attaching blocks sync waiters (nothing is replicated
// yet); attached waits them on the follower's acks; detached releases
// them (the follower is unreachable — an operator-visible degradation,
// not a silent one: the allowed-loss window of the replication contract
// is exactly the records acked while detached); fenced fails them (a
// newer epoch owns the shard; this primary must not ack anything).
const (
	stateAttaching = iota
	stateAttached
	stateDetached
	stateFenced
	stateClosed
)

func stateName(s int) string {
	switch s {
	case stateAttaching:
		return "attaching"
	case stateAttached:
		return "attached"
	case stateDetached:
		return "detached"
	case stateFenced:
		return "fenced"
	default:
		return "closed"
	}
}

// Defaults for ShipperConfig knobs.
// deliverTimeout bounds one attempt to deliver a batch.
const deliverTimeout = 5 * time.Second

const (
	// DefaultResetChunk bounds records per bootstrap chunk so a large
	// fleet's snapshot stays far under the 4 MiB wire cap.
	DefaultResetChunk = 1024
	// DefaultTailBuffer is the tail-subscription channel depth; a
	// follower that falls further behind than this forces a resync.
	DefaultTailBuffer = 256
	// DefaultDetachAfter is how many consecutive transport failures on
	// one batch flip the shipper to detached (waiters release).
	DefaultDetachAfter = 8
	// DefaultRetryDelay spaces transport retries.
	DefaultRetryDelay = 25 * time.Millisecond
)

// ShipperConfig wires a Shipper to its source store and its transport.
type ShipperConfig struct {
	// Store is the primary's durable store: the tail subscription and
	// bootstrap exports come from it.
	Store *store.Store
	// Devices is the fleet ID set to replicate.
	Devices []int
	// ServiceState supplies the fleet-level state appended to each
	// bootstrap so the follower inherits the admission sequence.
	ServiceState func() store.ServiceState
	// Epoch supplies the primary's current shard epoch, stamped on every
	// batch so a promoted follower can fence stragglers.
	Epoch func() uint64
	// ShardID labels shipped batches.
	ShardID string
	// Send delivers one batch by deadline and returns the follower's
	// ack, which is valid until the next Send. It must map
	// transport-level refusals onto ErrFenced / ErrOutOfSync /
	// ErrCorrupt (errors.Is) for the shipper to classify them.
	Send func(deadline time.Time, req *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error)
	// MaxLag is the bounded-lag ack mode knob: 0 means synchronous
	// (WaitReplicated blocks until the record itself is acked), N means
	// a session may be acknowledged while at most N records behind.
	MaxLag uint64
	// ResetChunk caps records per bootstrap chunk (<=0: default).
	ResetChunk int
	// TailBuffer is the tail-subscription depth (<=0: default).
	TailBuffer int
	// DetachAfter is the consecutive-failure detach threshold (<=0:
	// default).
	DetachAfter int
	// RetryDelay spaces transport retries (<=0: default).
	RetryDelay time.Duration
	// Chaos, with Seed, arms the replication-stream fault kinds: one
	// fault.ForReplication roll per live batch, keyed by its BatchSeq.
	Chaos *fault.Schedule
	Seed  int64
	// OnState, if set, observes state transitions (metrics hook).
	OnState func(state string)
}

// Shipper streams a primary's durable history to one follower:
// snapshot bootstrap, then the live committer tail, resyncing from a
// fresh snapshot whenever the stream breaks (lag, gap, corruption).
// WaitReplicated is the ack-path coupling: a session on the primary is
// not acknowledged until its record is replicated, the follower is
// known-unreachable, or the primary has been fenced (in which case the
// session fails).
type Shipper struct {
	cfg ShipperConfig

	mu        sync.Mutex
	state     int
	ackedSeq  uint64
	resyncs   uint64
	shipped   uint64
	dropped   uint64
	duped     uint64
	truncated uint64
	// waiters are the goroutines blocked in await, each woken through
	// its own channel when the state or the ack changes; idle holds
	// woken waiters' channels for reuse (DESIGN.md §16.2).
	waiters []chan struct{}
	idle    []chan struct{}
	// req is the live batch request relay fills, reused batch to batch
	// by the run goroutine.
	req cluster.ReplicaAppendRequest

	stopC chan struct{}
	doneC chan struct{}
}

// errStopped signals an orderly shutdown inside the run loop.
var errStopped = errors.New("replica: shipper stopped")

// StartShipper validates the config, applies defaults, and starts the
// streaming goroutine.
func StartShipper(cfg ShipperConfig) *Shipper {
	if cfg.ResetChunk <= 0 {
		cfg.ResetChunk = DefaultResetChunk
	}
	if cfg.TailBuffer <= 0 {
		cfg.TailBuffer = DefaultTailBuffer
	}
	if cfg.DetachAfter <= 0 {
		cfg.DetachAfter = DefaultDetachAfter
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = DefaultRetryDelay
	}
	sh := &Shipper{
		cfg:   cfg,
		stopC: make(chan struct{}),
		doneC: make(chan struct{}),
	}
	go sh.run()
	return sh
}

// Close stops the stream and releases every waiter. Idempotent.
func (sh *Shipper) Close() {
	sh.mu.Lock()
	if sh.state == stateClosed {
		sh.mu.Unlock()
		<-sh.doneC
		return
	}
	sh.setStateLocked(stateClosed)
	close(sh.stopC)
	sh.mu.Unlock()
	<-sh.doneC
}

// ShipperStatus is a point-in-time snapshot of shipping progress.
type ShipperStatus struct {
	State     string `json:"state"`
	AckedSeq  uint64 `json:"acked_seq"`
	Resyncs   uint64 `json:"resyncs"`
	Shipped   uint64 `json:"shipped_batches"`
	Dropped   uint64 `json:"chaos_dropped"`
	Duped     uint64 `json:"chaos_duplicated"`
	Truncated uint64 `json:"chaos_truncated"`
	// StreamDials counts the daemon's stream dials (1 per attach while the
	// stream is healthy); the service's transport fills it in.
	StreamDials uint64 `json:"stream_dials"`
}

// Status reports shipping progress.
func (sh *Shipper) Status() ShipperStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShipperStatus{
		State:     stateName(sh.state),
		AckedSeq:  sh.ackedSeq,
		Resyncs:   sh.resyncs,
		Shipped:   sh.shipped,
		Dropped:   sh.dropped,
		Duped:     sh.duped,
		Truncated: sh.truncated,
	}
}

// Attached reports whether the follower is currently caught up enough
// to be promoted (bootstrap complete, stream live).
func (sh *Shipper) Attached() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state == stateAttached
}

// Fenced reports whether a newer epoch fenced this primary.
func (sh *Shipper) Fenced() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state == stateFenced
}

// WaitAttached blocks until the follower has acked the bootstrap and
// the stream is live. It fails with ErrFenced once a newer epoch fenced
// the primary, with an error once the shipper detaches or closes first,
// and with ctx's error when ctx ends.
func (sh *Shipper) WaitAttached(ctx context.Context) error {
	return sh.await(ctx, func() (bool, error) {
		switch sh.state {
		case stateAttached:
			return true, nil
		case stateFenced:
			return true, ErrFenced
		case stateDetached, stateClosed:
			return true, fmt.Errorf("replica: shipper %s before the follower attached", stateName(sh.state))
		}
		return false, nil
	})
}

// WaitReplicated blocks until the record at seq is covered by the
// follower's acks (within the configured MaxLag), the shipper is
// detached or closed (the session proceeds unreplicated — the
// documented allowed-loss window), or the primary is fenced (the
// session must fail: ErrFenced). While the shipper is still attaching,
// callers wait: nothing has been replicated yet, so acking would
// silently void the contract at exactly the moment a follower is
// bootstrapping.
func (sh *Shipper) WaitReplicated(ctx context.Context, seq uint64) error {
	target := seq - min(seq, sh.cfg.MaxLag)
	return sh.await(ctx, func() (bool, error) {
		switch sh.state {
		case stateFenced:
			return true, ErrFenced
		case stateDetached, stateClosed:
			return true, nil
		}
		return sh.ackedSeq >= target, nil
	})
}

// await blocks until done, called with sh.mu held after every state or
// ack change, reports true, and returns its error; or until ctx ends.
//
// Each wait registers a channel of capacity one, taken from sh.idle, in
// sh.waiters; a change sends on every registered channel under sh.mu and
// clears the list. A waiter that leaves on ctx removes its channel under
// sh.mu, and drains the one send that may have reached it first, before
// the channel goes back to sh.idle: a reused channel never carries a
// wake-up meant for an earlier wait.
func (sh *Shipper) await(ctx context.Context, done func() (bool, error)) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if ok, err := done(); ok {
			return err
		}
		var ch chan struct{}
		if n := len(sh.idle); n > 0 {
			ch = sh.idle[n-1]
			sh.idle = sh.idle[:n-1]
		} else {
			ch = make(chan struct{}, 1)
		}
		sh.waiters = append(sh.waiters, ch)
		sh.mu.Unlock()
		var err error
		select {
		case <-ch:
		case <-ctx.Done():
			err = ctx.Err()
		}
		sh.mu.Lock()
		if err != nil {
			if i := slices.Index(sh.waiters, ch); i >= 0 {
				sh.waiters = slices.Delete(sh.waiters, i, i+1)
			} else {
				<-ch // woken as ctx ended: the send is already in ch
			}
		}
		sh.idle = append(sh.idle, ch)
		if err != nil {
			return err
		}
	}
}

// wakeLocked wakes every waiter; sh.mu is held.
func (sh *Shipper) wakeLocked() {
	for i, ch := range sh.waiters {
		ch <- struct{}{}
		sh.waiters[i] = nil
	}
	sh.waiters = sh.waiters[:0]
}

// setStateLocked transitions and wakes every waiter.
func (sh *Shipper) setStateLocked(state int) {
	sh.state = state
	sh.wakeLocked()
	if sh.cfg.OnState != nil {
		sh.cfg.OnState(stateName(state))
	}
}

// setState transitions unless already in a terminal state (closed and
// fenced are never left).
func (sh *Shipper) setState(state int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.state == stateClosed || sh.state == stateFenced {
		return
	}
	sh.setStateLocked(state)
}

func (sh *Shipper) setAcked(seq uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seq > sh.ackedSeq {
		sh.ackedSeq = seq
		sh.wakeLocked()
	}
}

func (sh *Shipper) stopped() bool {
	select {
	case <-sh.stopC:
		return true
	default:
		return false
	}
}

// run is the streaming loop: (re)attach until closed or fenced.
func (sh *Shipper) run() {
	defer close(sh.doneC)
	for {
		err := sh.stream()
		switch {
		case errors.Is(err, errStopped):
			return
		case errors.Is(err, ErrFenced):
			sh.mu.Lock()
			if sh.state != stateClosed {
				sh.setStateLocked(stateFenced)
			}
			sh.mu.Unlock()
			return
		}
		// Stream broke (lag, gap, corruption, transport): resync from a
		// fresh snapshot. The monotone merge makes the overlap harmless.
		sh.mu.Lock()
		sh.resyncs++
		sh.mu.Unlock()
		select {
		case <-sh.stopC:
			return
		case <-time.After(sh.cfg.RetryDelay):
		}
	}
}

// stream runs one attach cycle: subscribe to the tail first, then ship
// the snapshot bootstrap (everything up to subscription is covered by
// the export; everything after flows through the channel; the overlap
// is idempotent), then relay live batches in committer order.
func (sh *Shipper) stream() error {
	if sh.stopped() {
		return errStopped
	}
	sub := sh.cfg.Store.SubscribeTail(sh.cfg.TailBuffer)
	defer sub.Close()

	recs, horizon, err := sh.cfg.Store.ExportRange(sh.cfg.Devices, 0)
	if err != nil {
		// The store is closed (primary shutting down) or unreadable;
		// there is nothing to stream until the next cycle.
		sh.setState(stateDetached)
		return err
	}
	if sh.cfg.ServiceState != nil {
		sv := sh.cfg.ServiceState()
		recs = append(recs, store.Record{Seq: horizon, Service: &sv})
	}
	base := sub.Base()
	for off := 0; off < len(recs) || off == 0; off += sh.cfg.ResetChunk {
		end := off + sh.cfg.ResetChunk
		if end > len(recs) {
			end = len(recs)
		}
		chunk := recs[off:end]
		req := &cluster.ReplicaAppendRequest{
			Epoch:    sh.cfg.Epoch(),
			ShardID:  sh.cfg.ShardID,
			BatchSeq: base,
			Reset:    true,
			Records:  chunk,
		}
		if len(chunk) > 0 {
			req.FirstSeq = chunk[0].Seq
		}
		if end == len(recs) {
			req.LastSeq = horizon
		} else if len(chunk) > 0 {
			req.LastSeq = chunk[len(chunk)-1].Seq
		}
		if _, err := sh.deliver(req); err != nil {
			return err
		}
		if end >= len(recs) {
			break
		}
	}
	sh.setState(stateAttached)
	sh.setAcked(horizon)

	for {
		select {
		case <-sh.stopC:
			return errStopped
		case cb, ok := <-sub.C():
			if !ok {
				// Lagged (buffer overflow) or store closed; resync.
				return errors.New("replica: tail subscription ended")
			}
			err := sh.relay(cb)
			sh.req.Records = nil // the batch goes back to the tail
			sub.Release(cb)
			if err != nil {
				return err
			}
		}
	}
}

// relay ships one live batch, applying the replication chaos plan. The
// batch's records are lent by the tail: relay keeps none of them.
func (sh *Shipper) relay(cb store.CommittedBatch) error {
	plan := fault.ForReplication(sh.cfg.Chaos, sh.cfg.Seed, int64(cb.BatchSeq))
	if plan.DropBatch {
		// Never sent: the follower sees the next batch as a gap and the
		// stream resyncs. The records are still covered by the snapshot
		// the resync ships, so nothing acked is ever lost.
		sh.mu.Lock()
		sh.dropped++
		sh.mu.Unlock()
		return nil
	}
	req := &sh.req
	*req = cluster.ReplicaAppendRequest{
		Epoch:    sh.cfg.Epoch(),
		ShardID:  sh.cfg.ShardID,
		BatchSeq: cb.BatchSeq,
		FirstSeq: cb.FirstSeq,
		LastSeq:  cb.LastSeq,
		Records:  cb.Records,
	}
	if plan.TruncBatch && len(req.Records) > 1 {
		// Ship a copy missing its final record: the follower must refuse
		// it as corruption. The intact batch follows immediately.
		trunc := *req
		trunc.Records = req.Records[:len(req.Records)-1]
		sh.mu.Lock()
		sh.truncated++
		sh.mu.Unlock()
		if _, err := sh.deliver(&trunc); !errors.Is(err, ErrCorrupt) {
			if err != nil {
				return err
			}
			return errors.New("replica: follower applied a truncated batch")
		}
	}
	if _, err := sh.deliver(req); err != nil {
		return err
	}
	if plan.DupBatch {
		sh.mu.Lock()
		sh.duped++
		sh.mu.Unlock()
		if _, err := sh.deliver(req); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	sh.shipped++
	sh.mu.Unlock()
	sh.setAcked(cb.LastSeq)
	return nil
}

// deliver sends one request with transport retries. Typed refusals
// (fence, gap, corruption) return immediately for the caller to
// classify; transport errors retry up to DetachAfter times, after
// which the shipper flips to detached (sync waiters release — the
// primary stays available without its follower) and the attach cycle
// starts over. Each attempt has deliverTimeout to complete: a deadline
// the transport puts on the stream itself.
func (sh *Shipper) deliver(req *cluster.ReplicaAppendRequest) (*cluster.ReplicaAppendResponse, error) {
	var lastErr error
	for attempt := 0; attempt < sh.cfg.DetachAfter; attempt++ {
		if sh.stopped() {
			return nil, errStopped
		}
		resp, err := sh.cfg.Send(time.Now().Add(deliverTimeout), req)
		if err == nil {
			// A successful exchange restores attachment if a previous
			// batch had detached us.
			sh.mu.Lock()
			if sh.state == stateDetached {
				sh.setStateLocked(stateAttaching)
			}
			sh.mu.Unlock()
			return resp, nil
		}
		if errors.Is(err, ErrFenced) || errors.Is(err, ErrOutOfSync) || errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		lastErr = err
		select {
		case <-sh.stopC:
			return nil, errStopped
		case <-time.After(sh.cfg.RetryDelay):
		}
	}
	sh.setState(stateDetached)
	return nil, lastErr
}
