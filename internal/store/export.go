package store

import (
	"fmt"
	"os"
)

// Range export/import: the cluster handoff path ships a device range
// between shard stores as ordinary WAL records. The exporter re-scans
// its on-disk log under the commit lock and filters to the requested
// devices; the importer replays each record through its own commit path,
// so the shipped state is durable on the target (its own WAL, its own
// fsync) before the handoff acknowledges — the same accepted⇒durable
// discipline every live commit follows. Sequence numbers are local to a
// store: exported Seq values are informational, and the importer
// reassigns its own. Correctness rests on two properties: records are
// replayed in source order, and the merged-state reduction is idempotent
// and monotone, so a record shipped twice (snapshot pass + tail pass
// overlap) can never regress a counter.

// ExportRange returns the durable records needed to reconstruct the
// given devices elsewhere: every WAL record newer than since that
// touches one of them, followed by one synthetic record per device
// carrying its current merged state. The synthetic tail record exists
// because compaction truncates the WAL — a range whose records were
// folded into the snapshot would otherwise export empty — and because
// the monotone merge makes the duplication harmless. The returned
// horizon is the store's sequence high-water mark at export time; pass
// it back as since on the tail pass to ship only what this call missed.
//
// The scan walks every WAL segment in replay order. Checkpoint footers
// are skipped: they are derived state, and the synthetic tail records
// already carry the merged view they would contribute.
func (s *Store) ExportRange(ids []int, since uint64) ([]Record, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("store: export on closed store")
	}
	want := make(map[int]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}

	var out []Record
	// Under s.mu no append, seal, or compact can race this read, so the
	// segment set is a consistent prefix of the committed history.
	segs, err := listSegments(s.opts.Dir)
	if err != nil {
		return nil, 0, err
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, 0, fmt.Errorf("store: reading WAL for export: %w", err)
		}
		sc := scanWAL(data, true)
		for _, f := range sc.frames {
			if f.kind != frameRecord {
				continue
			}
			var rec Record
			if _, err := decodeRecord(f.payload, &rec); err != nil {
				continue // damaged payloads degrade the export, never fail it
			}
			if rec.Seq <= since || rec.Device == nil || !want[rec.Device.ID] {
				continue
			}
			rec.Service = nil // fleet-level state (seq, round-robin) is shard-local
			out = append(out, rec)
		}
	}
	for _, id := range ids {
		if d, ok := s.merged.devices[id]; ok {
			out = append(out, Record{Seq: s.merged.devSeq[id], Device: d.clone()})
		}
	}
	return out, s.merged.lastSeq, nil
}

// ImportAll replays records through the store's own commit path, in
// order, keeping every part — device, service, and note — unlike the
// handoff-oriented ImportRecords, which applies device state only.
// Replication uses it so a promoted follower inherits the primary's
// fleet-level admission sequence (which seeds per-session fault
// streams and session IDs) along with the devices. Sequence numbers
// are reassigned locally, as with every import.
func (s *Store) ImportAll(recs []Record) (int, error) {
	handles := make([]*CommitHandle, 0, len(recs))
	idx := make([]int, 0, len(recs))
	for i := range recs {
		if recs[i].Device == nil && recs[i].Service == nil && recs[i].Note == "" {
			continue
		}
		rec := recs[i].clone()
		rec.Seq = 0 // the committer assigns the local sequence
		handles = append(handles, s.enqueue(rec))
		idx = append(idx, i)
	}
	applied := 0
	var firstErr error
	for j, h := range handles {
		if err := h.Wait(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: importing record %d: %w", idx[j], err)
			}
			continue
		}
		applied++
	}
	return applied, firstErr
}

// ImportRecords replays exported records through the store's own commit
// path, in order. Only device records are applied. The whole batch is
// enqueued on the group committer before any handle is awaited — source
// order is preserved by the FIFO commit queue, and the records share
// fsyncs — but every record is durable (WAL append + fsync) before this
// returns. The count of applied records is returned.
func (s *Store) ImportRecords(recs []Record) (int, error) {
	handles := make([]*CommitHandle, 0, len(recs))
	idx := make([]int, 0, len(recs))
	for i := range recs {
		if recs[i].Device == nil {
			continue
		}
		handles = append(handles, s.CommitDeviceAsync(*recs[i].Device))
		idx = append(idx, i)
	}
	applied := 0
	var firstErr error
	for j, h := range handles {
		if err := h.Wait(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: importing record %d: %w", idx[j], err)
			}
			continue
		}
		applied++
	}
	return applied, firstErr
}
