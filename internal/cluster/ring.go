// Package cluster is wearlockd's horizontal story: a gateway that
// consistent-hashes device IDs onto N shard daemons — each a full
// wearlockd with its own durable store — over an explicit versioned wire
// protocol (registration, heartbeat, range export/import), with session
// proxying that passes 429/503 + Retry-After through unchanged and a
// snapshot-shipping + WAL-tail-replay handoff that moves a hash range
// between shards without ever regressing an HOTP counter.
//
// The dependency points outward only: cluster imports store and
// telemetry, never service. The service layer implements the shard side
// of the wire protocol using the message types defined here.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per shard on the hash ring.
// The bounded-load rule in Assignments guarantees fairness regardless of
// vnode count; vnodes still matter for stability — more of them spread a
// membership change's spilled devices across more (from → to) pairs.
const DefaultReplicas = 128

// Ring is a consistent-hash ring mapping device IDs onto shard names.
// The zero value is unusable; build one with NewRing. Ring is not
// concurrency-safe: the gateway guards it with its own lock and swaps
// routing tables atomically.
type Ring struct {
	replicas int
	// points is the sorted circle: each virtual node's hash, paired with
	// its owning shard.
	points []ringPoint
	shards map[string]bool
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing returns an empty ring with the given virtual-node count per
// shard (<= 0 means DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, shards: make(map[string]bool)}
}

// hash64 hashes a byte string onto the ring circle with FNV-1a. The ring
// only needs a stable, well-mixed placement — not cryptographic strength
// — and FNV keeps the package dependency-free.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// deviceHash places a device ID on the circle.
func deviceHash(device int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(device))
	return hash64(buf[:])
}

// AddShard inserts a shard's virtual nodes. Adding a present shard is an
// error: the caller tracks membership and a double add means its view
// and the ring's have diverged.
func (r *Ring) AddShard(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty shard name")
	}
	if r.shards[name] {
		return fmt.Errorf("cluster: shard %q already on the ring", name)
	}
	r.shards[name] = true
	for i := 0; i < r.replicas; i++ {
		key := fmt.Sprintf("%s#%d", name, i)
		r.points = append(r.points, ringPoint{hash: hash64([]byte(key)), shard: name})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical vnode hashes across shards would make ownership depend
		// on insertion order; break the tie on the shard name so the ring
		// is a pure function of its membership set.
		return r.points[i].shard < r.points[j].shard
	})
	return nil
}

// RemoveShard drops a shard's virtual nodes.
func (r *Ring) RemoveShard(name string) error {
	if !r.shards[name] {
		return fmt.Errorf("cluster: shard %q not on the ring", name)
	}
	delete(r.shards, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Shards lists the ring membership in sorted order.
func (r *Ring) Shards() []string {
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Owned enumerates the device IDs in [0, devices) that the named shard
// owns under the current membership, in ascending order.
func (r *Ring) Owned(name string, devices int) []int {
	var owned []int
	for d, s := range r.Assignments(devices) {
		if s == name {
			owned = append(owned, d)
		}
	}
	sort.Ints(owned)
	return owned
}

// Assignments maps every device in [0, devices) to its owning shard
// under consistent hashing with bounded loads: each device walks
// clockwise from its hash point, but a shard already holding its fair
// share (ceil(devices/shards)) is skipped and the device spills to the
// next arc. Plain successor assignment is binomially noisy — with a
// 64-device fleet on two shards a 20/44 split is within two sigma, which
// would cap cluster speedup at ~1.4× no matter how many vnodes smooth
// the arcs — while the bound pins every shard within one device of fair.
// Devices are processed in ring order (hash, then ID), which is
// membership-independent, so a membership change only moves devices the
// capacity shift forces, keeping the consistent-hash stability property.
func (r *Ring) Assignments(devices int) map[int]string {
	out := make(map[int]string, devices)
	if len(r.points) == 0 || len(r.shards) == 0 {
		return out
	}
	order := make([]int, devices)
	for d := range order {
		order[d] = d
	}
	sort.Slice(order, func(i, j int) bool {
		hi, hj := deviceHash(order[i]), deviceHash(order[j])
		if hi != hj {
			return hi < hj
		}
		return order[i] < order[j]
	})
	fair := (devices + len(r.shards) - 1) / len(r.shards)
	load := make(map[string]int, len(r.shards))
	for _, d := range order {
		h := deviceHash(d)
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
		for k := 0; k < len(r.points); k++ {
			p := r.points[(i+k)%len(r.points)]
			if load[p.shard] < fair {
				out[d] = p.shard
				load[p.shard]++
				break
			}
		}
	}
	return out
}

// Clone deep-copies the ring so a prospective membership change can be
// evaluated (diffed against the live ring) before committing to it.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		replicas: r.replicas,
		points:   append([]ringPoint(nil), r.points...),
		shards:   make(map[string]bool, len(r.shards)),
	}
	for name := range r.shards {
		c.shards[name] = true
	}
	return c
}

// Moves computes the handoff plan from this ring to next: for every
// device in [0, devices) whose owner changes, one Move grouped by
// (source, target) pair, sources and targets in deterministic order.
func (r *Ring) Moves(next *Ring, devices int) []Move {
	type pair struct{ from, to string }
	grouped := make(map[pair][]int)
	cur, nxt := r.Assignments(devices), next.Assignments(devices)
	for d := 0; d < devices; d++ {
		from, to := cur[d], nxt[d]
		if from != to {
			grouped[pair{from, to}] = append(grouped[pair{from, to}], d)
		}
	}
	pairs := make([]pair, 0, len(grouped))
	for p := range grouped {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})
	moves := make([]Move, 0, len(pairs))
	for _, p := range pairs {
		moves = append(moves, Move{From: p.from, To: p.to, Devices: grouped[p]})
	}
	return moves
}

// Move is one handoff work item: a set of devices leaving From for To.
type Move struct {
	From    string
	To      string
	Devices []int
}
