package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// On-disk layout inside the state directory. WALFileName is the legacy
// single-file log; segmented stores append to wal.NNNNN (see segment.go).
const (
	WALFileName      = "wal.log"
	SnapshotFileName = "snapshot.db"
	snapshotTmpName  = "snapshot.tmp"
)

// Options configures a Store.
type Options struct {
	// Dir is the state directory (created if missing).
	Dir string
	// NoFsync skips the fsync after each commit and compaction. Only for
	// tests and benchmarks: without fsync, "committed" stops meaning
	// "survives power loss" (it still survives kill -9, which only loses
	// process memory, not OS page cache).
	NoFsync bool
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appended records. 0 disables automatic compaction.
	SnapshotEvery int
	// SegmentBytes rolls the WAL to a fresh wal.NNNNN segment once the
	// active one reaches this size; sealing appends a checkpoint footer
	// so replay can skip everything before it. <=0 uses
	// DefaultSegmentBytes.
	SegmentBytes int64
	// CommitMaxBatch caps how many queued records the group committer
	// folds into one fsync. <=0 uses DefaultCommitMaxBatch.
	CommitMaxBatch int
	// CommitMaxDelay bounds how long the committer keeps absorbing new
	// arrivals into a still-growing batch before forcing the fsync. It
	// never delays a lone commit: queue depth 1 commits immediately.
	// <=0 uses DefaultCommitMaxDelay.
	CommitMaxDelay time.Duration
	// OnCommitBatch, if set, is called after every durable batch with
	// the number of records it carried (the wearlockd_wal_batch_size
	// feed). Called from the committer goroutine.
	OnCommitBatch func(n int)
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// SnapshotLoaded is true when a valid snapshot was applied.
	SnapshotLoaded bool
	// SnapshotCorrupt is true when a snapshot file existed but failed
	// framing/CRC/decoding; it counts as one corruption preceding the WAL.
	SnapshotCorrupt bool
	// WALMissing is true when a snapshot existed but no WAL file did —
	// state rollback evidence that distrusts every device.
	WALMissing bool
	// Segments is how many WAL files the directory held.
	Segments int
	// RecoveredRecords is how many valid WAL records were replayed
	// (including ones skipped as older than the snapshot or checkpoint
	// horizon).
	RecoveredRecords int
	// Corruptions counts bit-rot events (snapshot corruption included).
	Corruptions int
	// TornTail is true when a benign torn tail was truncated.
	TornTail bool
	// Distrusted lists device IDs whose last durable record may have been
	// lost to corruption; the caller must re-pair them rather than trust
	// their restored counters. A device whose ONLY records were destroyed
	// vanishes from the merged state entirely and cannot be named here:
	// whenever Damaged() is true, the caller must also re-pair any fleet
	// device it expected to find but which is absent from State().
	Distrusted []int
	// DecodeFallbacks counts snapshot, checkpoint and record payloads
	// that left the canonical layout this build writes and were decoded
	// by encoding/json's reflection path (DESIGN.md §15.3). Zero on a
	// log written by this build; non-zero means recovery ran slower than
	// it could, not that anything was lost.
	DecodeFallbacks int
	// ReplayDuration is how long snapshot load + WAL replay took.
	ReplayDuration time.Duration
}

// Damaged reports whether recovery found any evidence of data loss
// beyond a benign torn tail. When true, devices absent from the merged
// state cannot be assumed never-committed.
func (r RecoveryInfo) Damaged() bool {
	return r.Corruptions > 0 || r.SnapshotCorrupt || r.WALMissing
}

// CommitHandle is one in-flight commit's ticket: Wait blocks until the
// record's batch has been appended and fsynced (or failed). The
// accepted⇒durable contract lives here — nothing may be acknowledged to
// a caller before Wait returns nil.
//
// A handle outlives its commit: once its owner is done with it, Release
// hands it back to the store, whose next enqueue reuses it (DESIGN.md
// §15.1). It is resolved once per commit, and only the commit it was
// handed out for resolves it.
type CommitHandle struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu
	done bool
	err  error
	seq  uint64
	// s takes the handle back on Release; nil for a handle that never
	// queued (failedHandle).
	s *Store
}

func newHandle(s *Store) *CommitHandle {
	h := &CommitHandle{s: s}
	h.cond.L = &h.mu
	return h
}

// Wait blocks until the commit is durable and returns its outcome.
func (h *CommitHandle) Wait() error {
	h.mu.Lock()
	for !h.done {
		h.cond.Wait()
	}
	err := h.err
	h.mu.Unlock()
	return err
}

// Seq returns the record sequence number the committer assigned. Valid
// only after Wait has returned nil; the replication shipper uses it to
// wait for this specific record to be acknowledged by the follower.
func (h *CommitHandle) Seq() uint64 {
	h.mu.Lock()
	for !h.done {
		h.cond.Wait()
	}
	seq := h.seq
	h.mu.Unlock()
	return seq
}

// Release hands a resolved handle back to its store for reuse. Call it
// once, after the last Wait or Seq, from the handle's only holder; the
// handle must not be touched afterwards. Releasing is optional: a handle
// never released is garbage collected.
func (h *CommitHandle) Release() {
	h.mu.Lock()
	if !h.done {
		h.mu.Unlock()
		panic("store: releasing an unresolved commit handle")
	}
	h.done, h.err, h.seq = false, nil, 0
	h.mu.Unlock()
	if s := h.s; s != nil {
		s.qmu.Lock()
		if len(s.freeHandles) < maxFreeHandles {
			s.freeHandles = append(s.freeHandles, h)
		}
		s.qmu.Unlock()
	}
}

// resolve settles h with err; the committer calls it once per commit.
func (h *CommitHandle) resolve(err error) {
	h.mu.Lock()
	h.err = err
	h.done = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// errClosed fails a commit the store can no longer make durable.
var errClosed = errors.New("store: commit on closed store")

// maxFreeHandles caps the released handles a store keeps for reuse.
const maxFreeHandles = 1024

func failedHandle(err error) *CommitHandle {
	h := newHandle(nil)
	h.resolve(err)
	return h
}

// pending is one queued commit awaiting its batch. It holds its record's
// device and fleet states by value, so a commit copies its caller's
// state without a heap object of its own; rec points at them once the
// batch holding the entry is final (bind).
type pending struct {
	rec Record
	dev DeviceState
	svc ServiceState
	// key holds dev.Key when it fits; keyLen < 0 means dev.Key is nil or
	// a copy of its own.
	key    [inlineKeyLen]byte
	keyLen int
	h      *CommitHandle
	// err records a per-record pre-append failure (encode/size); ok marks
	// records that made it into the batch's frame buffer.
	err error
	ok  bool
}

// inlineKeyLen is the longest pairing key a pending entry holds inline;
// a longer one is copied to the heap.
const inlineKeyLen = 32

// set copies a record of d, sv and note into p. It takes the parts
// rather than a *Record so that a caller's states need not live on the
// heap: set copies what they point at, never the pointers.
func (p *pending) set(d *DeviceState, sv *ServiceState, note string) {
	p.rec = Record{Note: note}
	p.keyLen = -1
	if d != nil {
		p.dev = *d
		if d.Key != nil && len(d.Key) <= inlineKeyLen {
			p.keyLen = copy(p.key[:], d.Key)
			p.dev.Key = nil
		} else if d.Key != nil {
			p.dev.Key = append([]byte(nil), d.Key...)
		}
		p.rec.Device = &p.dev
	}
	if sv != nil {
		p.svc = *sv
		p.rec.Service = &p.svc
	}
}

// bind points p.rec at p's own states; p must stay where it is while rec
// is in use.
func (p *pending) bind() {
	if p.rec.Device != nil {
		if p.keyLen >= 0 {
			p.dev.Key = p.key[:p.keyLen]
		}
		p.rec.Device = &p.dev
	}
	if p.rec.Service != nil {
		p.rec.Service = &p.svc
	}
}

// Store is the durable state store. All methods are safe for concurrent
// use. Commits are batched: callers enqueue records and a single
// committer goroutine appends each batch with one fsync, so N concurrent
// commits cost one disk flush instead of N without ever acknowledging a
// record before its bytes are durable.
type Store struct {
	mu       sync.Mutex
	opts     Options
	snapPath string
	wal      *os.File
	segIndex int
	segBytes int64
	merged   *mergedState
	recovery RecoveryInfo
	// walRecords counts records currently in the WAL files (reset by
	// compaction); appended counts lifetime appends since Open.
	walRecords int
	appended   uint64
	closed     bool
	// tailSeq numbers durable batches; tailSubs holds the live tail
	// subscriptions (see tail.go). Both guarded by mu.
	tailSeq  uint64
	tailSubs map[*TailSub]struct{}
	// batchBuf is the committer's framing buffer, reused across batches
	// (the WAL write copies it). Guarded by mu.
	batchBuf []byte

	// Group-commit queue. qmu orders enqueues against shutdown; notifyC
	// wakes the committer; quitC/doneC bound its lifecycle.
	qmu     sync.Mutex
	queue   []pending
	qclosed bool
	// freeHandles are released handles the next enqueues reuse; batch is
	// the committer's batch, reused across batches. qmu guards the
	// first, the committer goroutine owns the second.
	freeHandles []*CommitHandle
	batch       []pending
	notifyC     chan struct{}
	quitC       chan struct{}
	doneC       chan struct{}
}

// Inspect reads a state directory read-only: no WAL creation, no
// torn-tail truncation. Crucially it preserves the one-shot rollback
// evidence — a snapshot whose WAL files are missing — which Open would
// consume by creating an empty segment (after which the directory is
// indistinguishable from the normal post-compaction state). Diagnostic
// tooling and the restart-chaos harness probe with Inspect so the next
// real Open still sees what they saw.
func Inspect(dir string) (State, RecoveryInfo, error) {
	return InspectParallel(dir, 0)
}

// InspectParallel is Inspect with an explicit replay worker count
// (0 = GOMAXPROCS, 1 = the serial reference). benchstore runs both and
// asserts bit-identical states.
func InspectParallel(dir string, workers int) (State, RecoveryInfo, error) {
	return inspect(dir, replayOptions{workers: workers})
}

// InspectFullDecode replays with the pre-checkpoint baseline semantics:
// every record frame is JSON-decoded and applied over snapshot.db alone;
// checkpoint footers are CRC-verified but carry no state. On a clean log
// the result is bit-identical to Inspect — benchstore measures the
// replay speedup against this.
func InspectFullDecode(dir string, workers int) (State, RecoveryInfo, error) {
	return inspect(dir, replayOptions{workers: workers, fullDecode: true})
}

func inspect(dir string, opt replayOptions) (State, RecoveryInfo, error) {
	if dir == "" {
		return State{}, RecoveryInfo{}, fmt.Errorf("store: empty state directory")
	}
	start := time.Now()
	l, err := loadDir(dir, opt)
	if err != nil {
		return State{}, RecoveryInfo{}, err
	}
	l.recovery.ReplayDuration = time.Since(start)
	return l.merged.snapshot(), l.recovery, nil
}

// Open recovers the durable state from dir (snapshot first, then
// segmented WAL replay), truncates a benign torn tail, readies the
// active segment for appends, and starts the group committer. It never
// refuses to open over damage: damage degrades to distrusted devices in
// RecoveryInfo.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty state directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.CommitMaxBatch <= 0 {
		opts.CommitMaxBatch = DefaultCommitMaxBatch
	}
	if opts.CommitMaxDelay <= 0 {
		opts.CommitMaxDelay = DefaultCommitMaxDelay
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating state dir: %w", err)
	}
	start := time.Now()
	l, err := loadDir(opts.Dir, replayOptions{})
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:     opts,
		snapPath: filepath.Join(opts.Dir, SnapshotFileName),
		merged:   l.merged,
		recovery: l.recovery,
		notifyC:  make(chan struct{}, 1),
		quitC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}

	// Truncate the benign torn tail so appends land on a clean frame
	// boundary. Corrupt mid-file regions are left in place: appends after
	// them resync on replay, and the distrust evidence survives until the
	// caller has committed repairs and compacted.
	if l.tornPath != "" {
		if err := os.Truncate(l.tornPath, l.tornAt); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}

	idx := l.lastIdx
	if idx == noSegment {
		idx = 0
	}
	wal, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(idx)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL segment: %w", err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: sizing WAL segment: %w", err)
	}
	s.wal = wal
	s.segIndex = idx
	s.segBytes = fi.Size()
	s.walRecords = l.records
	s.recovery.ReplayDuration = time.Since(start)
	go s.committer()
	return s, nil
}

// Recovery returns what Open found.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := s.recovery
	info.Distrusted = append([]int(nil), s.recovery.Distrusted...)
	return info
}

// State returns a deep copy of the merged durable state.
func (s *Store) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merged.snapshot()
}

// Device returns the merged state for one device.
func (s *Store) Device(id int) (DeviceState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.merged.devices[id]
	if !ok {
		return DeviceState{}, false
	}
	c := *d
	c.Key = append([]byte(nil), d.Key...)
	return c, true
}

// AppendedRecords reports how many records this process has committed
// since Open (the wearlockd_wal_records_total metric).
func (s *Store) AppendedRecords() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// CommitDevice durably appends one device state.
func (s *Store) CommitDevice(d DeviceState) error {
	return s.CommitDeviceAsync(d).Wait()
}

// CommitDeviceAsync enqueues one device state and returns its handle.
func (s *Store) CommitDeviceAsync(d DeviceState) *CommitHandle {
	return s.enqueue(&d, nil, "")
}

// CommitService durably appends the fleet-level state.
func (s *Store) CommitService(sv ServiceState) error {
	return s.enqueue(nil, &sv, "").Wait()
}

// Commit durably appends a combined record (either part may be nil).
func (s *Store) Commit(d *DeviceState, sv *ServiceState) error {
	return s.CommitAsync(d, sv).Wait()
}

// CommitAsync enqueues a combined record for the group committer and
// returns immediately with its handle. The caller may release whatever
// serialization it holds before Wait — batching across concurrent
// enqueuers is the whole point — but must not acknowledge anything
// until Wait returns nil.
//
// The states are copied at the call; the caller may change them as soon
// as it returns.
func (s *Store) CommitAsync(d *DeviceState, sv *ServiceState) *CommitHandle {
	return s.enqueue(d, sv, "")
}

// CommitNote appends a stateless marker record (used by the chaos tests
// to position crash points between durable commits).
func (s *Store) CommitNote(note string) error {
	return s.enqueue(nil, nil, note).Wait()
}

// enqueue copies a record of d, sv and note into the commit queue and
// returns its handle: a released one when the store has one, else a new
// one.
func (s *Store) enqueue(d *DeviceState, sv *ServiceState, note string) *CommitHandle {
	s.qmu.Lock()
	if s.qclosed {
		s.qmu.Unlock()
		return failedHandle(errClosed)
	}
	var h *CommitHandle
	if n := len(s.freeHandles); n > 0 {
		h = s.freeHandles[n-1]
		s.freeHandles[n-1] = nil
		s.freeHandles = s.freeHandles[:n-1]
	} else {
		h = newHandle(s)
	}
	s.queue = append(s.queue, pending{h: h})
	s.queue[len(s.queue)-1].set(d, sv, note)
	s.qmu.Unlock()
	select {
	case s.notifyC <- struct{}{}:
	default:
	}
	return h
}

// takeUpTo moves at most max pending commits, in arrival order, from the
// queue onto the end of batch and returns it.
func (s *Store) takeUpTo(batch []pending, max int) []pending {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	n := min(len(s.queue), max)
	batch = append(batch, s.queue[:n]...)
	rem := copy(s.queue, s.queue[n:])
	clear(s.queue[rem:]) // release resolved handles
	s.queue = s.queue[:rem]
	return batch
}

// committer is the single batching goroutine: it drains the queue into
// batches, appends each batch with one write and one fsync, and only
// then releases the batch's waiters. On shutdown it commits whatever is
// already enqueued before exiting, so a graceful Close never strands an
// accepted record.
func (s *Store) committer() {
	defer close(s.doneC)
	for {
		select {
		case <-s.notifyC:
			s.drainQueue(false)
		case <-s.quitC:
			s.drainQueue(true)
			return
		}
	}
}

// drainQueue commits batches until the queue is empty. While a batch is
// still below CommitMaxBatch, it lingers — yielding the processor and
// re-draining — for at most CommitMaxDelay, stopping the moment a yield
// brings nothing new. A lone commit on an idle store therefore pays one
// Gosched (sub-microsecond against a ~100µs fsync), never a timer wait.
//
// The unconditional first yield matters on a single P: the committer is
// woken in the runnext slot the instant one writer enqueues, and a
// sub-sysmon-quantum fsync never releases the P to the other runnable
// writers — without the yield the system locks into one-record batches
// (one fsync per commit, the exact regime group commit exists to
// escape) while 63 writers sit runnable but unscheduled.
func (s *Store) drainQueue(final bool) {
	for {
		batch := s.takeUpTo(s.batch[:0], s.opts.CommitMaxBatch)
		if len(batch) == 0 {
			return
		}
		if !final && len(batch) < s.opts.CommitMaxBatch {
			deadline := time.Now().Add(s.opts.CommitMaxDelay)
			for len(batch) < s.opts.CommitMaxBatch && time.Now().Before(deadline) {
				runtime.Gosched()
				n := len(batch)
				if batch = s.takeUpTo(batch, s.opts.CommitMaxBatch-n); len(batch) == n {
					break // nothing new arrived: stop lingering, fsync now
				}
			}
		}
		s.commitBatch(batch)
		clear(batch) // drop the resolved handles and the states
		s.batch = batch[:0]
	}
}

// maxRetainedBatchBuf caps the framing buffer the committer keeps
// between batches, so one burst of huge records is not held forever.
const maxRetainedBatchBuf = 1 << 20

// commitBatch appends one batch under the state lock: assign sequence
// numbers, marshal every record into one contiguous buffer, one write,
// one fsync, then apply all records to the merged state and resolve the
// waiters. A failed write or fsync applies nothing and fails every
// waiter — a record is observable if and only if it is durable. Segment
// rolls and compaction piggyback on the batch that crosses the
// threshold; their errors propagate to that batch's waiters exactly as
// the single-record commit path reported them.
func (s *Store) commitBatch(batch []pending) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range batch {
			resolve(&batch[i], errClosed)
		}
		return
	}
	buf := s.batchBuf[:0]
	seq := s.merged.lastSeq
	live := 0
	for i := range batch {
		p := &batch[i]
		p.bind()
		p.rec.Seq = seq + 1
		var err error
		if buf, err = appendRecordFrame(buf, &p.rec); err != nil {
			p.err = err
			continue
		}
		seq++
		p.ok = true
		live++
	}
	var err error
	if live > 0 {
		if _, werr := s.wal.Write(buf); werr != nil {
			err = fmt.Errorf("store: appending batch: %w", werr)
		} else if !s.opts.NoFsync {
			if serr := s.wal.Sync(); serr != nil {
				err = fmt.Errorf("store: fsync: %w", serr)
			}
		}
		if err == nil {
			// Only now — after the bytes are durable — do the records enter
			// the merged state callers can observe. Commit-then-acknowledge
			// is the service layer's accepted⇒durable discipline.
			for i := range batch {
				if batch[i].ok {
					s.merged.apply(&batch[i].rec)
					batch[i].h.seq = batch[i].rec.Seq
				}
			}
			s.tailSeq++
			if len(s.tailSubs) > 0 {
				cb := CommittedBatch{BatchSeq: s.tailSeq, Records: make([]Record, 0, live)}
				for i := range batch {
					if batch[i].ok {
						cb.Records = append(cb.Records, batch[i].rec.clone())
					}
				}
				cb.FirstSeq = cb.Records[0].Seq
				cb.LastSeq = cb.Records[len(cb.Records)-1].Seq
				s.publishTailLocked(cb)
			}
			s.walRecords += live
			s.appended += uint64(live)
			s.segBytes += int64(len(buf))
			if s.opts.OnCommitBatch != nil {
				s.opts.OnCommitBatch(live)
			}
			if s.segBytes >= s.opts.SegmentBytes {
				err = s.sealLocked()
			}
			if err == nil && s.opts.SnapshotEvery > 0 && s.walRecords >= s.opts.SnapshotEvery {
				err = s.compactLocked()
			}
		}
	}
	if cap(buf) <= maxRetainedBatchBuf {
		s.batchBuf = buf
	}
	s.mu.Unlock()
	for i := range batch {
		p := &batch[i]
		if p.err != nil {
			resolve(p, p.err)
		} else {
			resolve(p, err)
		}
	}
}

func resolve(p *pending, err error) {
	if p.h == nil {
		return
	}
	p.h.resolve(err)
	p.h = nil
}

// sealLocked closes out the active segment: it appends a checkpoint
// footer (the full merged state, WLS1-framed), fsyncs, creates the next
// segment, fsyncs the directory, and switches appends over. Create-only
// rolling means a crash anywhere in this sequence is benign: a torn
// footer is an ordinary torn tail, and a durable footer with no
// successor segment just leaves a mid-file checkpoint that appends
// continue after.
func (s *Store) sealLocked() error {
	sp := s.snapshotPayloadLocked()
	if img := snapshotFrame(&sp); len(img)-frameHeaderLen <= MaxRecordSize {
		if _, err := s.wal.Write(img); err != nil {
			return fmt.Errorf("store: appending checkpoint: %w", err)
		}
		if !s.opts.NoFsync {
			if err := s.wal.Sync(); err != nil {
				return fmt.Errorf("store: fsync checkpoint: %w", err)
			}
		}
	}
	next := s.segIndex + 1
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, segmentName(next)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating WAL segment: %w", err)
	}
	if !s.opts.NoFsync {
		if err := syncDir(s.opts.Dir); err != nil {
			f.Close()
			return err
		}
	}
	if err := s.wal.Close(); err != nil {
		f.Close()
		return fmt.Errorf("store: closing sealed segment: %w", err)
	}
	s.wal = f
	s.segIndex = next
	s.segBytes = 0
	return nil
}

func (s *Store) snapshotPayloadLocked() snapshotPayload {
	sp := snapshotPayload{
		LastSeq: s.merged.lastSeq,
		Service: s.merged.service,
	}
	ids := make([]int, 0, len(s.merged.devices))
	for id := range s.merged.devices {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := s.merged.devices[id]
		c := *d
		c.Key = append([]byte(nil), d.Key...)
		sp.Devices = append(sp.Devices, c)
	}
	return sp
}

// Seal closes out the active WAL segment with an fsynced checkpoint
// footer and rolls appends to a fresh segment. A graceful drain calls
// this before exit so a planned restart — or a follower bootstrapping
// from the segment set — replays from the checkpoint instead of
// re-scanning the live tail, without paying Compact's full snapshot
// rewrite on the shutdown path.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: seal on closed store")
	}
	return s.sealLocked()
}

// Compact folds the merged state into a fresh snapshot (tmp + fsync +
// atomic rename + dir fsync), drops every sealed segment whole, and
// truncates the active one. A crash at any point is safe: before the
// rename the old snapshot + full log stand; after it, replay skips
// records at or below the snapshot horizon, and sealed segments are
// removed oldest-first so an interrupted removal leaves a contiguous,
// snapshot-covered suffix.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: compact on closed store")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	sp := s.snapshotPayloadLocked()
	tmpPath := filepath.Join(s.opts.Dir, snapshotTmpName)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot tmp: %w", err)
	}
	if _, err := tmp.Write(snapshotFrame(&sp)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if !s.opts.NoFsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: fsync snapshot: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot tmp: %w", err)
	}
	if err := os.Rename(tmpPath, s.snapPath); err != nil {
		return fmt.Errorf("store: swapping snapshot: %w", err)
	}
	if !s.opts.NoFsync {
		if err := syncDir(s.opts.Dir); err != nil {
			return err
		}
	}
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return err
	}
	for _, sf := range segs {
		if sf.idx == s.segIndex {
			continue
		}
		if err := os.Remove(sf.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: dropping sealed segment: %w", err)
		}
	}
	if !s.opts.NoFsync {
		if err := syncDir(s.opts.Dir); err != nil {
			return err
		}
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL after snapshot: %w", err)
	}
	if !s.opts.NoFsync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: fsync truncated WAL: %w", err)
		}
	}
	s.walRecords = 0
	s.segBytes = 0
	return nil
}

// Close stops the committer — committing anything already enqueued, so
// a graceful shutdown strands no accepted record — and releases the WAL
// handle. It does not compact; graceful shutdown paths call Compact
// first so the next Open replays a snapshot instead of the full log.
// Commits enqueued after Close starts fail with a closed-store error.
func (s *Store) Close() error {
	s.qmu.Lock()
	already := s.qclosed
	s.qclosed = true
	s.qmu.Unlock()
	if !already {
		close(s.quitC)
	}
	<-s.doneC
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeTailsLocked()
	return s.wal.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
