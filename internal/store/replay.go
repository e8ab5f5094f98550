package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// Two-phase segmented replay (DESIGN.md §15).
//
// Phase one walks every segment sequentially with the frame-level
// scanner: every byte of every file is CRC-checked, torn tails are
// classified (benign only in the final file — a sealed segment's bytes
// were fsynced before its successor was created, so a short sealed tail
// is real damage), and file-local offsets are linearized into one global
// coordinate space so the PR-5 distrust rule keeps working unchanged.
//
// Phase two picks the newest valid checkpoint — the WLS1 footer with the
// highest sequence horizon, or the snapshot.db file, whichever is newer —
// applies it as the base state, and JSON-decodes only the record frames
// positioned after it, fanning the decode and the per-device apply across
// workers via the idempotent monotone merge. The result is bit-identical
// to a serial full-decode replay on a clean log: a checkpoint is by
// construction the merged state of everything before it.
//
// Corruption before the chosen checkpoint distrusts nobody — the
// checkpoint is a CRC-valid full-state re-proof written after those
// bytes, the same argument that lets ExportRange's synthetic tail
// records stand in for compacted history. Corruption after it distrusts
// exactly the devices without a later valid record, with the checkpoint
// itself counting as each contained device's record at the footer's
// offset. The PR-5 behavior is the special case "checkpoint =
// snapshot.db at offset -1" (snapshot-loaded devices stay maximally
// conservative at offset -1, so any WAL corruption still distrusts the
// ones that never re-proved themselves).

// replayOptions parameterizes loadDir.
type replayOptions struct {
	// workers fans phase two across this many goroutines; <=0 means
	// GOMAXPROCS, 1 forces the serial reference path.
	workers int
	// fullDecode disables checkpoint skipping: every record frame is
	// decoded and applied over snapshot.db alone, checkpoint footers are
	// scanned (CRC-verified) but carry no state. This is the PR-5
	// baseline semantics benchstore measures the speedup against; on a
	// clean log the result is bit-identical to the checkpointed replay.
	fullDecode bool
}

// loaded is the outcome of reading a state directory: the merged state,
// the recovery report, and what Open needs to resume appending.
type loaded struct {
	merged   *mergedState
	recovery RecoveryInfo
	// records counts CRC-valid record frames across all segments (the
	// walRecords seed driving SnapshotEvery).
	records int
	// lastIdx is the highest present segment index (the append target);
	// noSegment when the directory has no WAL files.
	lastIdx int
	// tornPath/tornAt locate the benign torn tail in the final file, for
	// Open to truncate. Empty path = clean tail.
	tornPath string
	tornAt   int64
}

// loadDir reads and classifies a state directory without mutating it.
func loadDir(dir string, opt replayOptions) (loaded, error) {
	workers := opt.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	l := loaded{merged: newMergedState(), lastIdx: noSegment}

	snapData, snapErr := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	snapExists := snapErr == nil
	if !snapExists && !os.IsNotExist(snapErr) {
		return l, fmt.Errorf("store: reading snapshot: %w", snapErr)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return l, err
	}

	// lastValid tracks each device's final valid record-or-checkpoint
	// offset for the distrust rule.
	lastValid := make(map[int]int64)
	var snapHorizon uint64
	if snapExists {
		var sp snapshotPayload
		slow, derr := readSnapshot(snapData, &sp)
		if slow {
			l.recovery.DecodeFallbacks++
		}
		if derr == nil {
			for i := range sp.Devices {
				l.merged.applyDevice(sp.LastSeq, &sp.Devices[i])
				lastValid[sp.Devices[i].ID] = -1 // snapshot precedes the whole WAL
			}
			l.merged.service = sp.Service
			l.merged.serviceSeq = sp.LastSeq
			l.merged.lastSeq = sp.LastSeq
			snapHorizon = sp.LastSeq
			l.recovery.SnapshotLoaded = true
		} else {
			// Damaged snapshot: its devices are unrecoverable here; any
			// device absent from the WAL simply comes back unpaired, which
			// is re-pair-required by construction.
			l.recovery.SnapshotCorrupt = true
			l.recovery.Corruptions++
		}
		if len(segs) == 0 {
			// A snapshot without any WAL file is rollback evidence (the
			// fault schedule's stale-snapshot kind): every device's newest
			// records are gone, so nothing can be trusted.
			l.recovery.WALMissing = true
		}
	}
	l.recovery.Segments = len(segs)

	// Phase one: sequential CRC/frame scan per segment, linearized into
	// one offset space. corr collects every corruption event's linear
	// offset (frame damage, gaps, decode failures added later).
	type segScan struct {
		sc   scanResult
		base int64
	}
	scans := make([]segScan, 0, len(segs))
	var corr []int64
	var base int64
	for i, seg := range segs {
		data, rerr := os.ReadFile(seg.path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // raced a concurrent compact's removal; Inspect-only
			}
			return l, fmt.Errorf("store: reading WAL segment %s: %w", filepath.Base(seg.path), rerr)
		}
		if i == 0 {
			// Rolls never rename and compaction always writes a snapshot
			// before dropping sealed segments, so a numbered log that does
			// not start at wal.00000 without a snapshot covering the
			// missing prefix means sealed history vanished.
			if seg.idx > 0 && !l.recovery.SnapshotLoaded {
				corr = append(corr, base)
			}
		} else if seg.idx != segs[i-1].idx+1 {
			// Interior hole: a whole sealed segment is gone. The event sits
			// at the following segment's base so only later evidence
			// re-proves a device.
			corr = append(corr, base)
		}
		sc := scanWAL(data, true)
		for _, c := range sc.corruptions {
			corr = append(corr, base+c)
		}
		if sc.tornTailAt >= 0 {
			if i == len(segs)-1 {
				l.recovery.TornTail = true
				l.tornPath = seg.path
				l.tornAt = sc.tornTailAt
			} else {
				// A short tail in a sealed segment is not a crash artifact:
				// the seal fsynced these bytes before creating the next
				// segment, so the missing tail is real damage.
				corr = append(corr, base+sc.tornTailAt)
			}
		}
		scans = append(scans, segScan{sc: sc, base: base})
		base += int64(len(data))
		l.lastIdx = seg.idx
	}

	// Flatten record frames into linear coordinates and decode checkpoint
	// footers eagerly (one per seal; a damaged one is a corruption event,
	// and an older one is simply superseded).
	nframes := 0
	for _, ss := range scans {
		nframes += len(ss.sc.frames)
	}
	frames := make([]frameAt, 0, nframes)
	var ckpt *snapshotPayload
	ckptOff := int64(-1)
	for _, ss := range scans {
		for _, f := range ss.sc.frames {
			f.off += ss.base
			f.end += ss.base
			if f.kind == frameCheckpoint {
				var sp snapshotPayload
				slow, err := decodeSnapshot(f.payload, &sp)
				if slow {
					l.recovery.DecodeFallbacks++
				}
				if err != nil {
					corr = append(corr, f.off)
					continue
				}
				if !opt.fullDecode && (ckpt == nil || sp.LastSeq > ckpt.LastSeq ||
					(sp.LastSeq == ckpt.LastSeq && f.off > ckptOff)) {
					spc := sp
					ckpt = &spc
					ckptOff = f.off
				}
				continue
			}
			frames = append(frames, f)
		}
	}
	l.records = len(frames)

	// Base state: snapshot.db first, then the newest footer, both through
	// the monotone merge so their relative age never matters. The replay
	// horizon is whichever is newer.
	horizon := snapHorizon
	if ckpt != nil {
		l.merged.apply(&Record{Seq: ckpt.LastSeq, Service: &ckpt.Service})
		for i := range ckpt.Devices {
			d := &ckpt.Devices[i]
			l.merged.applyDevice(ckpt.LastSeq, d)
			if lv, ok := lastValid[d.ID]; !ok || lv < ckptOff {
				lastValid[d.ID] = ckptOff
			}
		}
		if ckpt.LastSeq > horizon {
			horizon = ckpt.LastSeq
		}
	}

	// Phase two: decode only the frames after the chosen checkpoint (all
	// of them when there is none), fanned across workers.
	toDecode := frames
	if ckpt != nil {
		i := sort.Search(len(frames), func(i int) bool { return frames[i].off > ckptOff })
		toDecode = frames[i:]
	}
	decoded := make([]recordAt, len(toDecode))
	valid := make([]bool, len(toDecode))
	jsonFailures := 0
	if len(toDecode) > 0 {
		w := workers
		if w > len(toDecode) {
			w = len(toDecode)
		}
		decCorr := make([][]int64, w)
		fallbacks := make([]int, w)
		chunk := (len(toDecode) + w - 1) / w
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			lo, hi := wi*chunk, (wi+1)*chunk
			if hi > len(toDecode) {
				hi = len(toDecode)
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(wi, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					d := &decoded[i]
					fellBack, err := decodeRecord(toDecode[i].payload, &d.rec)
					if fellBack {
						fallbacks[wi]++
					}
					if err != nil {
						decCorr[wi] = append(decCorr[wi], toDecode[i].off)
						continue
					}
					d.off, d.end = toDecode[i].off, toDecode[i].end
					valid[i] = true
				}
			}(wi, lo, hi)
		}
		wg.Wait()
		for wi, c := range decCorr {
			corr = append(corr, c...)
			jsonFailures += len(c)
			l.recovery.DecodeFallbacks += fallbacks[wi]
		}
	}
	recs := decoded[:0]
	for i := range decoded {
		if valid[i] {
			recs = append(recs, decoded[i])
		}
	}
	l.recovery.RecoveredRecords = l.records - jsonFailures
	l.recovery.Corruptions += len(corr)

	applyRecords(l.merged, recs, horizon, lastValid, workers)

	// Distrust rule: a corruption event may have destroyed any record
	// written before it, so a device whose last valid record (or
	// containing checkpoint) precedes the last corruption cannot prove
	// its counters are current. Devices with valid evidence after the
	// corruption re-proved themselves.
	lastCorr := int64(-1)
	for _, c := range corr {
		if c > lastCorr {
			lastCorr = c
		}
	}
	if l.recovery.SnapshotCorrupt && lastCorr < 0 {
		for id, off := range lastValid {
			if off < 0 {
				l.recovery.Distrusted = append(l.recovery.Distrusted, id)
			}
		}
	} else if lastCorr >= 0 {
		for id, off := range lastValid {
			if off < lastCorr {
				l.recovery.Distrusted = append(l.recovery.Distrusted, id)
			}
		}
	}
	if l.recovery.WALMissing {
		l.recovery.Distrusted = l.recovery.Distrusted[:0]
		for id := range l.merged.devices {
			l.recovery.Distrusted = append(l.recovery.Distrusted, id)
		}
	}
	sort.Ints(l.recovery.Distrusted)
	return l, nil
}

// applyRecords folds decoded records (file order) into merged under the
// horizon rule: records at or below the horizon are already part of the
// base state and only apply when their device is absent from it (the
// crash window between a snapshot rename and the WAL truncate). The
// parallel path shards devices across workers — each device's records
// stay in file order on one goroutine, the service reduction runs as a
// single ordered pass, and the monotone merge makes the result
// bit-identical to the serial path.
func applyRecords(merged *mergedState, recs []recordAt, horizon uint64, lastValid map[int]int64, workers int) {
	if workers <= 1 || len(recs) < 2*workers {
		for i := range recs {
			ra := &recs[i]
			d := ra.rec.Device
			if ra.rec.Seq > horizon {
				merged.apply(&ra.rec)
			} else if d != nil {
				if _, ok := merged.devices[d.ID]; !ok {
					merged.applyDevice(ra.rec.Seq, d)
				}
			}
			if d != nil {
				lastValid[d.ID] = ra.off
			}
		}
		return
	}

	w := workers
	shards := make([]*mergedState, w)
	shardLV := make([]map[int]int64, w)
	buckets := make([][]int, w)
	for i := 0; i < w; i++ {
		shards[i] = newMergedState()
		shardLV[i] = make(map[int]int64)
	}
	for id, d := range merged.devices {
		shards[id%w].devices[id] = d
		shards[id%w].devSeq[id] = merged.devSeq[id]
	}
	for id, off := range lastValid {
		shardLV[id%w][id] = off
	}
	for i := range recs {
		if d := recs[i].rec.Device; d != nil {
			buckets[d.ID%w] = append(buckets[d.ID%w], i)
		}
	}
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		if len(buckets[wi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			m, lv := shards[wi], shardLV[wi]
			for _, i := range buckets[wi] {
				ra := &recs[i]
				d := ra.rec.Device
				if ra.rec.Seq > horizon {
					m.applyDevice(ra.rec.Seq, d)
				} else if _, ok := m.devices[d.ID]; !ok {
					m.applyDevice(ra.rec.Seq, d)
				}
				lv[d.ID] = ra.off
			}
		}(wi)
	}
	// The service reduction and the sequence high-water mark are a single
	// ordered pass; they touch none of the shard state.
	maxSeq := merged.lastSeq
	for i := range recs {
		ra := &recs[i]
		if ra.rec.Seq <= horizon {
			continue
		}
		if ra.rec.Seq > maxSeq {
			maxSeq = ra.rec.Seq
		}
		if sv := ra.rec.Service; sv != nil {
			if sv.Seq > merged.service.Seq {
				merged.service.Seq = sv.Seq
			}
			if ra.rec.Seq >= merged.serviceSeq {
				merged.service.NextDev = sv.NextDev
				merged.serviceSeq = ra.rec.Seq
			}
		}
	}
	merged.lastSeq = maxSeq
	wg.Wait()
	for wi := 0; wi < w; wi++ {
		for id, d := range shards[wi].devices {
			merged.devices[id] = d
			merged.devSeq[id] = shards[wi].devSeq[id]
		}
		for id, off := range shardLV[wi] {
			lastValid[id] = off
		}
	}
}
