package cluster

import (
	"context"
	"fmt"
	"time"
)

// Handoff contract (DESIGN.md §13): moving a device range from shard A
// to shard B reuses the durable-state machinery, never a bespoke copy of
// live memory:
//
//  1. Snapshot ship (A still serving): export-range on A returns the
//     range's durable records and the store's sequence high-water mark
//     S. B replays them into its own WAL (commit-then-adopt: durable
//     before acknowledged), but does not serve the devices yet.
//  2. Fence + tail (A frozen for the range only): export-range with
//     Fence=true makes A reject new submissions for the range with
//     503 + Retry-After, wait out in-flight sessions (a session holds
//     its device lock, so waiting on the lock IS the quiesce), commit
//     each device's final state, and return only WAL records newer than
//     S — the tail the snapshot pass missed.
//  3. Adopt: B replays the tail and restores the in-memory devices from
//     its merged durable state (RestoreState + RNG SkipTo, the exact
//     path crash recovery takes). The store's idempotent monotone merge
//     makes a duplicated record harmless and a counter regression
//     structurally impossible: max-merge can only move counters forward.
//  4. Flip + release: the gateway routes the range to B (override table
//     first, ring at commit), then tells A to release it — subsequent
//     strays to A answer 421 and are re-resolved, never dropped.
//
// Step 3 is the commit point of a move. A move that fails before its
// adopt leaves A authoritative: routing never pointed at B, so B served
// no traffic, and its imported-but-unadopted records rot harmlessly in
// its store (a later handoff's newer records out-merge them, and the
// recovery re-registration strips any ownership B took without routing).
// A move whose adopt succeeded is committed even if the release after it
// fails: B serves the range and its counters advance, so the range must
// never return to A.
//
// A multi-move join therefore aborts to a PARTIAL topology, never back
// to the old one: committed moves are folded into the routing table
// (their devices keep routing to B), uncommitted ranges stay with their
// sources, and every shard is re-registered with that effective
// assignment on a fresh context — the triggering request's context may
// be the very thing that failed. The join resumes from the first
// uncommitted move when the same shard is added again; other topology
// changes are refused until it completes.

// HandoffReport summarizes one completed range handoff.
type HandoffReport struct {
	From            string        `json:"from"`
	To              string        `json:"to"`
	Devices         []int         `json:"devices"`
	SnapshotRecords int           `json:"snapshot_records"`
	TailRecords     int           `json:"tail_records"`
	Duration        time.Duration `json:"duration"`
	FencedFor       time.Duration `json:"fenced_for"`
}

// pendingJoin is a shard join whose handoff plan has not fully
// committed. It survives an aborted AddShard so the committed prefix of
// moves stays committed and the join can resume where it stopped.
type pendingJoin struct {
	sc    ShardConfig
	next  *Ring
	moves []Move
	done  int // moves[:done] committed: their devices belong to sc
}

// chunkMoves splits each move into ranges of at most max devices, so a
// single fence+tail export quiesces a bounded device set and stays
// inside the handoff call budget even with airtime pacing holding every
// device lock for a whole protocol timeline.
func chunkMoves(moves []Move, max int) []Move {
	if max <= 0 {
		return moves
	}
	var out []Move
	for _, mv := range moves {
		for len(mv.Devices) > max {
			out = append(out, Move{From: mv.From, To: mv.To, Devices: mv.Devices[:max]})
			mv.Devices = mv.Devices[max:]
		}
		out = append(out, mv)
	}
	return out
}

// AddShard joins a new shard to the ring and moves every range the new
// membership assigns it, one (source → target) chunk at a time. On
// success the topology epoch advances and all shards are re-registered
// with their final assignments. On failure the committed prefix of
// moves stays committed (see the handoff contract above); re-adding the
// same shard resumes the join from the first uncommitted move.
func (g *Gateway) AddShard(ctx context.Context, sc ShardConfig) ([]HandoffReport, error) {
	if sc.BaseURL == "" {
		return nil, fmt.Errorf("cluster: shard %q has no base URL", sc.Name)
	}
	g.mu.Lock()
	if g.migrating {
		g.mu.Unlock()
		return nil, fmt.Errorf("cluster: a topology change is already in progress")
	}
	var pend *pendingJoin
	switch {
	case g.pending != nil && g.pending.sc.Name == sc.Name:
		// Resume an aborted join. The committed prefix already routes to
		// the new shard via the table; the plan picks up at moves[done:].
		pend = g.pending
		pend.sc = sc
		if old := g.shards[sc.Name]; old != nil {
			old.repoint(sc.BaseURL) // closes the replaced handle's streams
		}
		g.shards[sc.Name] = g.newHandle(sc)
	case g.pending != nil:
		name := g.pending.sc.Name
		g.mu.Unlock()
		return nil, fmt.Errorf("cluster: aborted join of shard %q is pending; re-add it to resume before other topology changes", name)
	default:
		if _, dup := g.shards[sc.Name]; dup {
			g.mu.Unlock()
			return nil, fmt.Errorf("cluster: shard %q already registered", sc.Name)
		}
		next := g.ring.Clone()
		if err := next.AddShard(sc.Name); err != nil {
			g.mu.Unlock()
			return nil, err
		}
		g.shards[sc.Name] = g.newHandle(sc)
		pend = &pendingJoin{
			sc:    sc,
			next:  next,
			moves: chunkMoves(g.ring.Moves(next, g.cfg.TotalDevices), g.cfg.MoveChunk),
		}
		g.pending = pend
	}
	g.migrating = true
	g.epoch++
	epoch := g.epoch
	g.overrides = make(map[int]string)
	// On resume the new shard already owns the committed prefix; the
	// handshake re-asserts exactly that. On a fresh join it owns nothing.
	handshakeOwned := ownedIn(g.table, sc.Name)
	g.mu.Unlock()
	g.m.epoch.Set(int64(epoch))

	// Handshake the new shard before touching any range: version skew or
	// an undersized fleet must abort before the first fence, not after it.
	ack, err := wireCall[RegisterResponse](ctx, g.handoffClient, sc.BaseURL,
		"/cluster/v1/register", MsgRegister, &RegisterRequest{
			ShardID:      sc.Name,
			Epoch:        epoch,
			TotalDevices: g.cfg.TotalDevices,
			Owned:        handshakeOwned,
		}, MsgRegisterAck)
	if err == nil && ack.Devices < g.cfg.TotalDevices {
		err = fmt.Errorf("fleet %d smaller than device space %d", ack.Devices, g.cfg.TotalDevices)
	}
	if err != nil {
		// Nothing was fenced or moved in this attempt; withdraw the shard
		// unless a previous attempt committed moves onto it.
		g.mu.Lock()
		if pend.done == 0 {
			delete(g.shards, sc.Name)
			g.pending = nil
		}
		g.overrides = nil
		g.migrating = false
		g.mu.Unlock()
		return nil, fmt.Errorf("cluster: handshaking new shard %q: %w", sc.Name, err)
	}

	var reports []HandoffReport
	for pend.done < len(pend.moves) {
		mv := pend.moves[pend.done]
		rep, adopted, herr := g.handoff(ctx, epoch, mv)
		if adopted {
			// The target replayed the tail and serves the range: the move
			// is committed regardless of what failed after.
			reports = append(reports, rep)
			g.mu.Lock()
			pend.done++
			g.mu.Unlock()
		}
		if herr != nil {
			herr = fmt.Errorf("cluster: handoff %s→%s: %w", mv.From, mv.To, herr)
			if aerr := g.abortJoin(pend); aerr != nil {
				herr = fmt.Errorf("%w (recovery re-registration also failed: %v)", herr, aerr)
			}
			return reports, herr
		}
	}

	// Commit: the new ring becomes the routing truth, overrides retire.
	g.mu.Lock()
	g.ring = pend.next
	g.table = pend.next.Assignments(g.cfg.TotalDevices)
	g.overrides = nil
	g.migrating = false
	g.pending = nil
	g.mu.Unlock()
	// Re-register everyone so each shard's owned set matches the final
	// ring exactly (registration is idempotent and epoch-guarded).
	if err := g.Register(ctx); err != nil {
		return reports, fmt.Errorf("cluster: post-handoff re-registration: %w", err)
	}
	return reports, nil
}

// abortJoin lands a failed join on the partial topology: committed
// moves fold into the routing table (their devices must never return to
// sources whose durable counters predate the traffic the targets
// served), uncommitted ranges stay with their sources, and every shard
// is re-registered with the effective assignment — which also clears
// the failed move's fence on its source. Recovery runs on a fresh
// context: the caller's may be canceled (client disconnect mid-join is
// a likely cause of the abort itself), and an undo that dies with it
// would leave the range fenced and answering 503 until operator action.
func (g *Gateway) abortJoin(pend *pendingJoin) error {
	g.mu.Lock()
	if pend.done == 0 {
		// Nothing committed: withdraw the shard and restore the old
		// topology exactly.
		delete(g.shards, pend.sc.Name)
		g.pending = nil
	} else {
		table := make(map[int]string, len(g.table))
		for d, s := range g.table {
			table[d] = s
		}
		for _, mv := range pend.moves[:pend.done] {
			for _, d := range mv.Devices {
				table[d] = mv.To
			}
		}
		g.table = table
	}
	g.overrides = nil
	g.migrating = false
	g.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HandoffTimeout)
	defer cancel()
	return g.Register(ctx)
}

// handoff executes one move's four steps. adopted reports whether the
// move passed its commit point (step 3): an adopted move must be kept
// even when the error is non-nil.
func (g *Gateway) handoff(ctx context.Context, epoch uint64, mv Move) (HandoffReport, bool, error) {
	start := time.Now()
	rep := HandoffReport{From: mv.From, To: mv.To, Devices: mv.Devices}

	// 1. Snapshot ship, source still serving the range.
	snap, err := hcall[ExportRangeResponse](ctx, g, mv.From, "/cluster/v1/export-range",
		MsgExportRange, &ExportRangeRequest{Epoch: epoch, Devices: mv.Devices}, MsgExportRangeAck)
	if err != nil {
		return rep, false, fmt.Errorf("snapshot export: %w", err)
	}
	rep.SnapshotRecords = len(snap.Records)
	if _, err := hcall[ImportRangeResponse](ctx, g, mv.To, "/cluster/v1/import-range",
		MsgImportRange, &ImportRangeRequest{
			Epoch: epoch, Devices: mv.Devices, Records: snap.Records,
		}, MsgImportRangeAck); err != nil {
		return rep, false, fmt.Errorf("snapshot import: %w", err)
	}

	// 2. Fence + tail: freeze the range on the source and collect what
	// the snapshot pass missed.
	fencedAt := time.Now()
	tail, err := hcall[ExportRangeResponse](ctx, g, mv.From, "/cluster/v1/export-range",
		MsgExportRange, &ExportRangeRequest{
			Epoch: epoch, Devices: mv.Devices, Since: snap.LastSeq, Fence: true,
		}, MsgExportRangeAck)
	if err != nil {
		return rep, false, fmt.Errorf("tail export: %w", err)
	}
	rep.TailRecords = len(tail.Records)

	// 3. Adopt: the target replays the tail and starts serving. A lost
	// ack here (target adopted, response dropped) is still safe to treat
	// as uncommitted: routing never flipped, so the target served no
	// traffic, and the abort's re-registration strips the ownership it
	// took.
	if _, err := hcall[ImportRangeResponse](ctx, g, mv.To, "/cluster/v1/import-range",
		MsgImportRange, &ImportRangeRequest{
			Epoch: epoch, Devices: mv.Devices, Records: tail.Records, Adopt: true,
		}, MsgImportRangeAck); err != nil {
		return rep, false, fmt.Errorf("tail import: %w", err)
	}

	// 4. Flip routing for the moved devices, then release the source.
	g.mu.Lock()
	for _, d := range mv.Devices {
		g.overrides[d] = mv.To
	}
	g.mu.Unlock()
	rep.FencedFor = time.Since(fencedAt)
	if _, err := hcall[ReleaseRangeResponse](ctx, g, mv.From, "/cluster/v1/release-range",
		MsgReleaseRange, &ReleaseRangeRequest{Epoch: epoch, Devices: mv.Devices}, MsgReleaseRangeAck); err != nil {
		// The target already owns the range and routing points at it: the
		// move is committed. A failed release only costs the source a
		// stale fence, which the abort's re-registration clears.
		return rep, true, fmt.Errorf("release (range already serving on %s): %w", mv.To, err)
	}

	rep.Duration = time.Since(start)
	g.m.handoffs.Inc()
	g.m.moved.Add(uint64(len(mv.Devices)))
	g.m.tailRecs.Add(uint64(rep.TailRecords))
	g.m.handoffSec.Set(rep.Duration.Seconds())
	return rep, true, nil
}
