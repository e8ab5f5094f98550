// Durability wiring: recovery of the durable device store at startup and
// the per-session persistence the accepted⇒durable promise rests on.
//
// The protocol is:
//
//   - New() launches recoverState when Config.StateDir is set; Submit
//     rejects with ErrRecovering until the ready channel closes, and the
//     /readyz endpoint reports "recovering" over the same window.
//   - Recovery opens the store (snapshot + WAL replay) and checks every
//     record the log names against core.CheckRestore. A record that passes
//     waits in its unbuilt device: the device's first touch builds it,
//     fast-forwards its counted RNG stream to the persisted draw position,
//     and restores counters with the widened post-recovery look-ahead so a
//     watch that generated tokens the crash lost still resynchronizes. A
//     device the log does not name stays unbuilt until its first session.
//   - Devices the store distrusts (their last durable record may have
//     been destroyed by corruption) are re-paired with a fresh key at
//     counter zero instead of resumed: a possibly regressed counter must
//     never become a replay window. When recovery found damage, devices
//     absent from the store entirely get the same treatment — "absent"
//     no longer proves "never committed".
//   - Every finished session commits its device state plus the fleet
//     admission sequence before it is reported done.
package service

import (
	"context"
	"fmt"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/keyguard"
	"wearlock/internal/otp"
	"wearlock/internal/store"
)

// Recovery summarizes what startup durable-state recovery found and did.
// It is written once, before the ready channel closes; readers must gate
// on Ready()/WaitReady.
type Recovery struct {
	// Enabled is true when a state directory was configured.
	Enabled bool
	// Err is the terminal recovery failure, if any. A non-nil Err makes
	// Submit reject permanently: a daemon that cannot promise durability
	// must not accept unlock traffic.
	Err error
	// Store is the store layer's replay report.
	Store store.RecoveryInfo
	// Repaired lists devices re-paired with a fresh key (distrusted by
	// the store, or absent while the log showed damage).
	Repaired []int
	// RestoreDuration covers the device loop alone: checking each record
	// the log names and re-pairing the devices recovery cannot trust. A
	// device whose record passes restores at its first touch, after
	// recovery: about 20 µs on top of the build at 35 k draws, about 2 ms
	// at 3·10^8 (SkipTo's jump path). Store.ReplayDuration is the log side.
	RestoreDuration time.Duration
	// Duration covers store open + replay + record checks + repairs.
	Duration time.Duration
}

// recoverState restores durable state before the daemon accepts traffic.
// It runs off New() so the HTTP listener can come up immediately and
// answer /readyz with "recovering".
func (s *Service) recoverState() {
	defer close(s.ready)
	start := time.Now()
	s.recovery.Enabled = true

	every := s.cfg.SnapshotEvery
	if every <= 0 {
		every = 1024
	}
	if s.cfg.NoFsync {
		s.m.fsyncDisabled.Set(1)
	}
	st, err := store.Open(store.Options{
		Dir:            s.cfg.StateDir,
		NoFsync:        s.cfg.NoFsync,
		SnapshotEvery:  every,
		SegmentBytes:   s.cfg.WALSegmentBytes,
		CommitMaxBatch: s.cfg.CommitMaxBatch,
		CommitMaxDelay: s.cfg.CommitMaxDelay,
		OnCommitBatch: func(n int) {
			s.m.walBatchSize.Observe(float64(n))
		},
	})
	if err != nil {
		s.recovery.Err = fmt.Errorf("service: opening durable store: %w", err)
		s.recovery.Duration = time.Since(start)
		return
	}
	s.store = st
	info := st.Recovery()
	state := st.State()
	s.recovery.Store = info
	s.m.recoveryReplaySeconds.Set(info.ReplayDuration.Seconds())
	s.m.recoveryFallbacks.Set(int64(info.DecodeFallbacks))

	// The admission sequence seeds per-session fault streams; resuming
	// below the durable high-water mark would replay fault patterns (and
	// reuse session IDs) from before the crash.
	s.mu.Lock()
	if state.Service.Seq > s.seq {
		s.seq = state.Service.Seq
	}
	s.mu.Unlock()
	if nd := state.Service.NextDev; nd > s.nextDev.Load() {
		s.nextDev.Store(nd)
	}

	distrusted := make(map[int]bool, len(info.Distrusted))
	for _, id := range info.Distrusted {
		distrusted[id] = true
	}

	restoreStart := time.Now()
	// Only what must be settled before traffic runs here: the re-pairs,
	// serially in device-ID order so the WAL order and the first recorded
	// error are deterministic. Every other record the log names waits in
	// its unbuilt device for the first touch to restore it.
	for _, dev := range s.devices {
		ds, named := state.Devices[dev.id]
		switch {
		case !named && !info.Damaged():
			continue
		case named && !distrusted[dev.id] && core.CheckRestore(s.cfg.Core, toCoreExport(ds), ds.RngDraws) == nil:
			dev.mu.Lock()
			dev.recovered = &ds
			dev.mu.Unlock()
			continue
		}
		// Re-pair instead of resuming:
		//   - absent from a damaged log, the device's records may be among
		//     the destroyed bytes, and rebuilding the original seed-derived
		//     pairing at counter zero would be a genuine replay window;
		//   - distrusted, the store cannot prove the restored counter is
		//     current, so resuming could re-accept spent tokens;
		//   - a record the merge layer accepted but the core refuses
		//     (core.CheckRestore) is corruption by another name.
		dev.lock()
		at := ds.RngDraws
		if !named {
			at = dev.src.Draws()
		}
		s.repairDeviceLocked(dev, at)
		dev.mu.Unlock()
	}
	s.recovery.RestoreDuration = time.Since(restoreStart)
	s.m.recoveryRestoreSeconds.Set(s.recovery.RestoreDuration.Seconds())

	if len(s.recovery.Repaired) > 0 {
		// Fold the repairs into a snapshot so the corrupt WAL evidence
		// (kept on disk until now) is retired in the same stroke that
		// makes the fresh pairings durable.
		if cerr := st.Compact(); cerr != nil && s.recovery.Err == nil {
			s.recovery.Err = fmt.Errorf("service: compacting after repair: %w", cerr)
		}
	}

	corruptions := uint64(info.Corruptions)
	if info.WALMissing {
		corruptions++
	}
	if corruptions > 0 {
		s.m.corruptions.Add(corruptions)
	}
	s.recovery.Duration = time.Since(start)
	s.m.recoverySeconds.Set(s.recovery.Duration.Seconds())
}

// repairDeviceLocked re-pairs one device (fresh key, counter zero) and
// commits the new pairing. Caller holds dev.mu; failures are recorded on
// the recovery report rather than returned — a device that cannot even
// re-pair leaves the daemon unready (recovery.Err rejects Submit).
func (s *Service) repairDeviceLocked(dev *devicePair, draws uint64) {
	err := dev.src.SkipTo(draws)
	if err == nil {
		err = dev.sys.Repair()
	}
	if err == nil {
		err = s.commitDeviceLocked(dev)
	}
	if err != nil {
		if s.recovery.Err == nil {
			s.recovery.Err = fmt.Errorf("service: re-pairing device %d: %w", dev.id, err)
		}
		return
	}
	s.recovery.Repaired = append(s.recovery.Repaired, dev.id)
	s.m.repairs.Inc()
}

// restoreLocked moves a built pair to a durable record: its stream
// fast-forwards to the record's draw position and its counters restore
// with the widened post-recovery look-ahead. First touch after recovery,
// replica warm-up, promotion and handoff adoption all restore through it.
// Caller holds d.mu.
func (d *devicePair) restoreLocked(ds store.DeviceState) error {
	if err := d.src.SkipTo(ds.RngDraws); err != nil {
		return err
	}
	return d.sys.RestoreState(toCoreExport(ds), otp.DefaultResyncLookAhead)
}

// toCoreExport converts a durable device record into the core layer's
// restore input.
func toCoreExport(ds store.DeviceState) core.DeviceExport {
	return core.DeviceExport{
		Key:           ds.Key,
		GenCounter:    ds.GenCounter,
		VerCounter:    ds.VerCounter,
		VerFailures:   ds.VerFailures,
		VerLockedOut:  ds.VerLockedOut,
		GuardState:    keyguard.State(ds.GuardState),
		GuardFailures: ds.GuardFailures,
		NowUnixNano:   ds.NowUnixNano,
	}
}

// exportDevice captures one device's durable record. Caller holds dev.mu.
// The record's key is the pair's own export storage, valid until the
// next export: both callers hand the record to the store, which copies
// it.
func (s *Service) exportDevice(dev *devicePair) store.DeviceState {
	ex := core.DeviceExport{Key: dev.key}
	dev.sys.ExportStateInto(&ex)
	dev.key = ex.Key
	return store.DeviceState{
		ID:            dev.id,
		Key:           ex.Key,
		GenCounter:    ex.GenCounter,
		VerCounter:    ex.VerCounter,
		VerFailures:   ex.VerFailures,
		VerLockedOut:  ex.VerLockedOut,
		GuardState:    int(ex.GuardState),
		GuardFailures: ex.GuardFailures,
		NowUnixNano:   ex.NowUnixNano,
		RngDraws:      dev.src.Draws(),
	}
}

// commitDeviceLocked durably appends the device's current state without
// the fleet record. Caller holds dev.mu.
func (s *Service) commitDeviceLocked(dev *devicePair) error {
	ds := s.exportDevice(dev)
	if err := s.store.CommitDevice(ds); err != nil {
		return err
	}
	s.m.walRecords.Inc()
	return nil
}

// pendingCommit is one session's in-flight durable commit: the handle
// plus the enqueue timestamp feeding the commit-latency histogram. A
// zero pendingCommit (no store configured) awaits to nil immediately.
type pendingCommit struct {
	h     *store.CommitHandle
	start time.Time
}

// await blocks until the commit is durable and records its latency.
func (c pendingCommit) await(s *Service, devID int) error {
	if c.h == nil {
		return nil
	}
	err := c.h.Wait()
	s.m.commitSeconds.Observe(time.Since(c.start).Seconds())
	if err != nil {
		return fmt.Errorf("service: persisting device %d: %w", devID, err)
	}
	s.m.walRecords.Inc()
	return nil
}

// release hands the commit's handle back to the store once the session
// is done with it.
func (c pendingCommit) release() {
	if c.h != nil {
		c.h.Release()
	}
}

// persistDeviceAsync enqueues a finished session's device state together
// with the fleet admission state on the store's group committer. Caller
// holds dev.mu — the exported snapshot is the session's own — but the
// returned commit is awaited after the lock is released, so commits
// across devices batch into shared fsyncs. A nil store (no state dir)
// returns a no-op commit.
func (s *Service) persistDeviceAsync(dev *devicePair) pendingCommit {
	if s.store == nil {
		return pendingCommit{}
	}
	ds := s.exportDevice(dev)
	sv := s.serviceState()
	return pendingCommit{h: s.store.CommitAsync(&ds, &sv), start: time.Now()}
}

// persistServiceSeq commits a fleet-only record after an admission that
// consumed a sequence number without running a session (chaos and
// queue-full rejections), so a restarted daemon does not replay the
// rejected sequence's fault stream onto a different request. Best-effort:
// a failed commit here loses no accepted work.
func (s *Service) persistServiceSeq(seq uint64) {
	if s.store == nil {
		return
	}
	if err := s.store.CommitService(store.ServiceState{Seq: seq, NextDev: s.nextDev.Load()}); err != nil {
		return
	}
	s.m.walRecords.Inc()
}

// serviceState snapshots the fleet-level durable record.
func (s *Service) serviceState() store.ServiceState {
	return store.ServiceState{Seq: s.currentSeq(), NextDev: s.nextDev.Load()}
}

// currentSeq reads the admission sequence under the service lock.
func (s *Service) currentSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Ready reports whether startup recovery has finished, and with what
// result. Before the ready channel closes it returns (Recovery{}, false)
// without touching the report (which recovery may still be writing).
func (s *Service) Ready() (Recovery, bool) {
	select {
	case <-s.ready:
		rec := s.recovery
		rec.Repaired = append([]int(nil), s.recovery.Repaired...)
		return rec, true
	default:
		return Recovery{}, false
	}
}

// WaitReady blocks until startup recovery finishes (or ctx ends) and
// returns its terminal error, if any.
func (s *Service) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return s.recovery.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StoreState returns a copy of the merged durable state, waiting for
// recovery to finish first. ok is false when no store is configured or
// recovery failed before opening one.
func (s *Service) StoreState() (store.State, bool) {
	<-s.ready
	if s.store == nil {
		return store.State{}, false
	}
	return s.store.State(), true
}

// Kill abandons the daemon without graceful drain — the restart-chaos
// harness's in-process stand-in for SIGKILL. It stops admission, closes
// the store out from under in-flight sessions (their commits fail, as a
// real crash would lose them), then tears down the pool and GC. Unlike a
// true kill -9 the worker goroutines do finish their current session
// bodies; durability is exercised by the store being gone, not by
// preempting Go code mid-statement.
func (s *Service) Kill() {
	<-s.ready
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// The shipper dies with the process: close it first so sessions
	// blocked in the replication wait are released (their commits already
	// failed with the store) instead of hanging on a dead stream.
	s.replClose()
	s.unlockStreams.Close()
	if s.store != nil {
		s.store.Close()
	}
	s.pool.Close()
	s.mu.Lock()
	stopped := s.gcStop
	s.gcStop = nil
	s.mu.Unlock()
	if stopped != nil {
		close(stopped)
		<-s.gcDone
	}
}
