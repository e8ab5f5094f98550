package cluster

import (
	"context"
	"fmt"
)

// Failover contract (DESIGN.md §16): a shard with a configured warm
// standby never stays down for a WAL replay. The standby has been
// applying the primary's replication stream all along, so promoting it
// is a reconcile, not a recovery:
//
//  1. Fence: the gateway advances the topology epoch. The promote order
//     carries the new epoch; once the standby adopts it, any append the
//     old primary still ships is refused with 409, which the old
//     primary's shipper surfaces as a fence to its own session waiters
//     — a half-dead primary cannot acknowledge past the takeover.
//  2. Promote: /replica/v1/promote on the standby runs the final device
//     reconcile from its durable store, adopts the fleet admission
//     sequence, and installs the shard's ownership registration at the
//     fenced epoch. The call is idempotent; a lost ack is retried.
//  3. Re-point: the shard's routing URL swaps to the standby, its
//     pooled unlock streams to the dead primary are dropped, and its
//     health state resets. In-flight proxies to the dead primary fail
//     to 503 + Retry-After (never dropped); retries land on the
//     promoted standby under the same shard name.
//
// The move is one-way: the standby slot empties (a promoted daemon is a
// primary; re-arming protection means attaching a fresh -follow daemon
// and configuring it as the new standby). If the old primary comes
// back, heartbeats no longer reach it and its epoch is stale — it can
// rejoin only as a fresh standby.

// standbyFor returns the configured, unpromoted standby URL for a
// shard, or "".
func (g *Gateway) standbyFor(name string) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.standbys[name]
}

// Failover promotes the shard's warm standby and re-points routing at
// it. Exported for drills; the heartbeat loop calls it automatically
// when a shard with a standby crosses the miss threshold. On error the
// routing is unchanged (the epoch may have advanced — harmless, it is
// monotone) and the next heartbeat past the threshold retries.
func (g *Gateway) Failover(ctx context.Context, name string) error {
	h := g.handle(name)
	if h == nil {
		return fmt.Errorf("cluster: failover of unknown shard %q", name)
	}
	standby := g.standbyFor(name)
	if standby == "" {
		return fmt.Errorf("cluster: shard %q has no standby to fail over to", name)
	}
	g.mu.Lock()
	if g.migrating {
		g.mu.Unlock()
		return fmt.Errorf("cluster: failover of %q refused mid-migration", name)
	}
	g.epoch++
	epoch := g.epoch
	assign := make(map[int]string, len(g.table))
	for d, s := range g.table {
		assign[d] = s
	}
	for d, s := range g.overrides {
		assign[d] = s
	}
	g.mu.Unlock()
	g.m.epoch.Set(int64(epoch))

	ack, err := wireCall[PromoteResponse](ctx, g.client, standby,
		"/replica/v1/promote", MsgPromote, &PromoteRequest{
			Epoch:        epoch,
			ShardID:      name,
			TotalDevices: g.cfg.TotalDevices,
			Owned:        ownedIn(assign, name),
		}, MsgPromoteAck)
	if err != nil {
		return fmt.Errorf("cluster: promoting standby of %q: %w", name, err)
	}
	if ack.ShardID != name {
		return fmt.Errorf("cluster: standby of %q identifies as %q", name, ack.ShardID)
	}

	g.mu.Lock()
	delete(g.standbys, name)
	g.mu.Unlock()
	h.repoint(standby)
	h.mu.Lock()
	h.misses = 0
	h.unhealthy = false
	h.ready = true
	h.lastErr = ""
	h.failovers++
	h.lastBeat = g.clock.Now()
	h.mu.Unlock()
	g.m.failovers.Inc()
	return nil
}

// SetStandby configures (or replaces) a shard's warm standby at
// runtime — how protection is re-armed after a failover consumed the
// previous standby.
func (g *Gateway) SetStandby(name, url string) error {
	if url == "" {
		return fmt.Errorf("cluster: empty standby URL for shard %q", name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.shards[name]; !ok {
		return fmt.Errorf("cluster: standby for unknown shard %q", name)
	}
	g.standbys[name] = url
	return nil
}
