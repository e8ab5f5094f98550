package store

// Single-image replay and standalone framing, kept for the tests that
// pin the frame layout and the corruption taxonomy on one WAL image.
// Recovery itself goes through loadDir, and the committer frames records
// in place with openFrame/closeFrame.

// replayResult is the outcome of replaying one WAL image: the decoded
// records plus scanWAL's corruption taxonomy, with payloads that fail to
// decode added as corruption events at their frame offsets.
type replayResult struct {
	records     []recordAt
	corruptions []int64
	tornTailAt  int64
}

// replayWAL scans a WAL image, returning every recoverable record in file
// order plus the corruption taxonomy. It never fails: arbitrary damage
// degrades to fewer records and more corruption events. This is the
// single-image contract (checkpoint footers are not legal frames here).
func replayWAL(data []byte) replayResult {
	sc := scanWAL(data, false)
	res := replayResult{tornTailAt: sc.tornTailAt}
	// Interleave frame-level corruption events with decode failures so
	// the list stays in file-offset order.
	ci := 0
	for _, f := range sc.frames {
		for ci < len(sc.corruptions) && sc.corruptions[ci] < f.off {
			res.corruptions = append(res.corruptions, sc.corruptions[ci])
			ci++
		}
		var rec Record
		if _, err := decodeRecord(f.payload, &rec); err != nil {
			res.corruptions = append(res.corruptions, f.off)
			continue
		}
		res.records = append(res.records, recordAt{off: f.off, end: f.end, rec: rec})
	}
	res.corruptions = append(res.corruptions, sc.corruptions[ci:]...)
	return res
}

// appendFrame appends payload in the on-disk framing to dst through the
// committer's openFrame/closeFrame pair.
func appendFrame(dst, magic, payload []byte) []byte {
	start := len(dst)
	return closeFrame(append(openFrame(dst, magic), payload...), start)
}

// frame returns payload in the on-disk framing as a fresh buffer.
func frame(magic, payload []byte) []byte { return appendFrame(nil, magic, payload) }
