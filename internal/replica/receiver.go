// Package replica is the warm-standby replication layer: a primary
// ships its durable history to a follower as a snapshot bootstrap
// (store.ExportRange chunks) followed by the live WAL tail (every
// group-commit batch, in committer order), and the follower applies
// both through its own store's commit path — its own WAL, its own
// fsync — so everything it has acknowledged is durable locally. The
// idempotent monotone merge underneath makes the whole stream safe to
// overlap, duplicate, or re-ship: a counter can never regress no matter
// how the batches arrive, and anything that cannot be applied safely is
// refused as out-of-sync (shipper resyncs) or corrupt (never applied).
//
// The package deliberately knows nothing about HTTP or the service
// layer: the shipper sends through an injected function, the receiver
// consumes decoded wire payloads, and the service composes both with
// its transport, fencing, and device-warming concerns.
package replica

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"wearlock/internal/cluster"
	"wearlock/internal/store"
)

// Typed stream errors. The transport maps them onto distinct HTTP
// statuses so the shipper can tell "resync and carry on" from "you
// have been fenced, stop".
var (
	// ErrFenced means the follower refused the batch because it has been
	// promoted under a newer epoch: the sender is a stale primary and
	// must stop acknowledging clients.
	ErrFenced = errors.New("replica: fenced by newer epoch")
	// ErrOutOfSync means the batch sequence did not line up (a gap); the
	// shipper recovers with a snapshot resync.
	ErrOutOfSync = errors.New("replica: batch out of sync")
	// ErrCorrupt means the batch body contradicted its own header
	// (truncated or padded in flight); it was not applied.
	ErrCorrupt = errors.New("replica: batch corrupt")
)

// ReceiverConfig wires a Receiver to its follower store.
type ReceiverConfig struct {
	// Store is the follower's durable store; every accepted batch is
	// committed through it before the ack.
	Store *store.Store
	// FollowerID labels acks.
	FollowerID string
	// OnApplied, if set, runs after each durably applied batch with the
	// device IDs it touched — the service's hook to keep its in-memory
	// devices warm (SkipTo + restore) so promotion has almost nothing
	// left to do. It must not keep the slice, which the next batch reuses.
	OnApplied func(devices []int)
}

// Receiver applies a primary's replication stream to the follower
// store: reset (bootstrap) chunks at any batch sequence, then live
// batches in strict committer order. Duplicates are acknowledged
// without harm, gaps and corrupt bodies are refused with typed errors.
type Receiver struct {
	cfg ReceiverConfig

	mu             sync.Mutex
	haveBase       bool
	expected       uint64 // next live BatchSeq once haveBase
	appliedSeq     uint64 // source-sequence high-water mark
	appliedBatches uint64
	resets         uint64
	// ids is notifyLocked's device list, reused batch to batch.
	ids []int
}

// NewReceiver returns a Receiver over the follower store.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	return &Receiver{cfg: cfg}
}

// ReceiverStatus is a point-in-time snapshot of stream progress.
type ReceiverStatus struct {
	AppliedSeq     uint64 `json:"applied_seq"`
	AppliedBatches uint64 `json:"applied_batches"`
	Resets         uint64 `json:"resets"`
	ExpectedBatch  uint64 `json:"expected_batch"`
}

// Status reports stream progress.
func (r *Receiver) Status() ReceiverStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStatus{
		AppliedSeq:     r.appliedSeq,
		AppliedBatches: r.appliedBatches,
		Resets:         r.resets,
		ExpectedBatch:  r.expected,
	}
}

// AppliedSeq returns the source-sequence high-water mark.
func (r *Receiver) AppliedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

// Apply processes one shipped batch: validate, commit durably through
// the follower store, then acknowledge. It serializes callers — the
// stream is ordered, so there is nothing to gain from concurrent
// applies — and holds its lock across the store commit so a duplicate
// arriving during an apply cannot jump the queue.
func (r *Receiver) Apply(req *cluster.ReplicaAppendRequest) (cluster.ReplicaAppendResponse, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if req.Reset {
		return r.applyResetLocked(req)
	}
	if !r.haveBase {
		return cluster.ReplicaAppendResponse{}, fmt.Errorf("%w: live batch %d before any reset", ErrOutOfSync, req.BatchSeq)
	}
	if req.BatchSeq < r.expected {
		// Duplicate of an already-applied batch (a retry that lost its
		// ack, or the dup-batch chaos fault): acknowledge idempotently.
		return r.ackLocked(), nil
	}
	if req.BatchSeq > r.expected {
		return cluster.ReplicaAppendResponse{}, fmt.Errorf("%w: batch %d arrived while expecting %d", ErrOutOfSync, req.BatchSeq, r.expected)
	}
	if err := validateLive(req); err != nil {
		return cluster.ReplicaAppendResponse{}, err
	}
	if err := r.importLocked(req.Records); err != nil {
		return cluster.ReplicaAppendResponse{}, err
	}
	r.expected++
	r.appliedBatches++
	if req.LastSeq > r.appliedSeq {
		r.appliedSeq = req.LastSeq
	}
	r.notifyLocked(req.Records)
	return r.ackLocked(), nil
}

// applyResetLocked handles a bootstrap/resync chunk: apply the records
// and adopt the chunk's batch sequence as the new live base. Reset
// chunks carry merged-state records, so re-applying one over anything
// is harmless by the monotone merge.
func (r *Receiver) applyResetLocked(req *cluster.ReplicaAppendRequest) (cluster.ReplicaAppendResponse, error) {
	if err := r.importLocked(req.Records); err != nil {
		return cluster.ReplicaAppendResponse{}, err
	}
	r.haveBase = true
	r.expected = req.BatchSeq + 1
	r.resets++
	if req.LastSeq > r.appliedSeq {
		r.appliedSeq = req.LastSeq
	}
	r.notifyLocked(req.Records)
	return r.ackLocked(), nil
}

// importLocked commits the records through the follower store, in
// order, durably (the store's group committer batches the fsyncs).
func (r *Receiver) importLocked(recs []store.Record) error {
	if _, err := r.cfg.Store.ImportAll(recs); err != nil {
		return fmt.Errorf("replica: applying batch: %w", err)
	}
	return nil
}

// notifyLocked hands the touched device IDs to the warm-apply hook.
func (r *Receiver) notifyLocked(recs []store.Record) {
	if r.cfg.OnApplied == nil {
		return
	}
	ids := r.ids[:0]
	for i := range recs {
		if d := recs[i].Device; d != nil && !slices.Contains(ids, d.ID) {
			ids = append(ids, d.ID)
		}
	}
	r.ids = ids
	if len(ids) > 0 {
		r.cfg.OnApplied(ids)
	}
}

func (r *Receiver) ackLocked() cluster.ReplicaAppendResponse {
	return cluster.ReplicaAppendResponse{
		FollowerID:    r.cfg.FollowerID,
		AppliedSeq:    r.appliedSeq,
		ExpectedBatch: r.expected,
	}
}

// validateLive checks a live batch's body against its header. Live
// batches carry the committer's records verbatim, whose sequences are
// consecutive — so a body that lost or gained records in flight cannot
// satisfy these bounds and is classified as corruption rather than
// applied partially.
func validateLive(req *cluster.ReplicaAppendRequest) error {
	n := len(req.Records)
	if n == 0 {
		return fmt.Errorf("%w: live batch %d has no records", ErrCorrupt, req.BatchSeq)
	}
	if req.LastSeq < req.FirstSeq || req.LastSeq-req.FirstSeq+1 != uint64(n) {
		return fmt.Errorf("%w: batch %d claims [%d,%d] but carries %d records",
			ErrCorrupt, req.BatchSeq, req.FirstSeq, req.LastSeq, n)
	}
	for i := range req.Records {
		if req.Records[i].Seq != req.FirstSeq+uint64(i) {
			return fmt.Errorf("%w: batch %d record %d has seq %d, want %d",
				ErrCorrupt, req.BatchSeq, i, req.Records[i].Seq, req.FirstSeq+uint64(i))
		}
	}
	return nil
}
