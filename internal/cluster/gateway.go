package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/telemetry"
	"wearlock/internal/vtime"
)

// ShardConfig names one shard daemon and where to reach it.
type ShardConfig struct {
	// Name is the routing identity ("s0", "s1", ...). It must be unique
	// and must match the shard_id the shard stamps onto its metrics.
	Name string `json:"name"`
	// BaseURL is the shard's HTTP root, e.g. "http://127.0.0.1:8548".
	BaseURL string `json:"base_url"`
}

// GatewayConfig parameterizes the gateway.
type GatewayConfig struct {
	// Shards is the initial membership. At least one.
	Shards []ShardConfig
	// TotalDevices is the global device-ID space the ring partitions.
	TotalDevices int
	// Replicas is the virtual-node count per shard; <= 0 means
	// DefaultReplicas.
	Replicas int
	// Client issues proxy, registration, and heartbeat calls; nil means a
	// 30 s-timeout client. Handoff calls use their own client sized by
	// HandoffTimeout instead — see below. Unlocks ride pooled unlock
	// streams instead of the client, under the same per-call Timeout.
	Client *http.Client
	// HeartbeatEvery is the liveness-probe period for StartHeartbeats;
	// <= 0 means 2 s.
	HeartbeatEvery time.Duration
	// HeartbeatMisses marks a shard unhealthy after this many consecutive
	// probe failures; <= 0 means 3.
	HeartbeatMisses int
	// HandoffTimeout bounds each handoff wire call and the abort path's
	// recovery re-registration. A fenced tail export waits out every
	// in-flight session in the move (airtime pacing holds a device for
	// its whole protocol timeline), so this must cover MoveChunk paced
	// sessions plus commit time, not just an RTT. <= 0 means 2 minutes.
	HandoffTimeout time.Duration
	// MoveChunk caps the devices moved per handoff step: larger moves
	// are split so a single fence+tail export never quiesces more than
	// this many devices in one call. <= 0 means 16.
	MoveChunk int
	// Standbys maps a shard name to the base URL of its warm standby (a
	// wearlockd started with -follow replicating that shard's primary).
	// When a shard with a standby goes unhealthy — HeartbeatMisses
	// consecutive probe failures — the gateway fences the epoch, promotes
	// the standby, and re-points the shard's routing at it. Shards
	// without an entry keep today's behavior (unhealthy, no failover).
	Standbys map[string]string
	// Clock supplies time for heartbeat bookkeeping (last-beat stamps,
	// suspect ages). nil means the wall clock; the heartbeat-loss tests
	// inject vtime.NewManualClock and drive HeartbeatOnce directly so a
	// failover decision needs no wall-clock sleeps.
	Clock vtime.Clock
}

// shardHandle is the gateway's view of one shard.
type shardHandle struct {
	cfg ShardConfig

	mu        sync.Mutex
	baseURL   string // current routing target; swapped by failover
	ready     bool
	misses    int
	unhealthy bool
	failing   bool // a failover attempt is in flight
	failovers int  // completed promotions onto this shard's slot
	lastBeat  time.Time
	lastErr   string

	// idle pools unlock streams to baseURL, the last returned on top.
	// streamGen counts re-points: a stream dialled before one is closed
	// when it comes back, never pooled. Once closed (Gateway.Close),
	// nothing is pooled.
	idle      []*unlockStream
	streamGen uint64
	closed    bool
	hop       *telemetry.Histogram // this shard's wearlock_gateway_shard_seconds
}

// url returns the shard's current routing target. It differs from
// cfg.BaseURL after a failover promoted the standby into this slot.
func (h *shardHandle) url() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.baseURL
}

// gwMetrics bundles the gateway's own registry handles.
type gwMetrics struct {
	proxied    *telemetry.CounterVec
	passthru   *telemetry.CounterVec
	reroutes   *telemetry.Counter
	errors     *telemetry.Counter
	handoffs   *telemetry.Counter
	moved      *telemetry.Counter
	tailRecs   *telemetry.Counter
	handoffSec *telemetry.FloatGauge
	shardsUp   *telemetry.Gauge
	epoch      *telemetry.Gauge
	failovers  *telemetry.Counter
	shardSec   *telemetry.HistogramVec
	dials      *telemetry.Counter
}

// Gateway consistent-hashes device IDs across shard daemons and proxies
// the wearlockd HTTP API to the owning shard.
type Gateway struct {
	cfg    GatewayConfig
	client *http.Client
	// handoffClient carries handoff wire calls: same transport, but a
	// budget sized for a fenced range export that waits out in-flight
	// paced sessions (cfg.HandoffTimeout), not the proxy client's
	// RTT-scale timeout.
	handoffClient *http.Client
	reg           *telemetry.Registry
	m             *gwMetrics

	// nextDev assigns devices to requests that pinned none, round-robin
	// over the global fleet so load spreads across every shard.
	nextDev atomic.Uint64

	clock vtime.Clock

	mu        sync.RWMutex
	standbys  map[string]string // shard name -> unpromoted standby URL
	ring      *Ring
	table     map[int]string // effective assignment: the ring's, plus committed moves of an aborted join
	shards    map[string]*shardHandle
	overrides map[int]string // mid-handoff routing: device -> new owner
	pending   *pendingJoin   // aborted join with committed moves; resumable via AddShard
	epoch     uint64
	migrating bool
}

// NewGateway validates the topology and builds the routing ring. No
// shard is contacted yet: call Register to run the handshake.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: gateway needs at least one shard")
	}
	if cfg.TotalDevices <= 0 {
		return nil, fmt.Errorf("cluster: total device space %d must be positive", cfg.TotalDevices)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 2 * time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	if cfg.HandoffTimeout <= 0 {
		cfg.HandoffTimeout = 2 * time.Minute
	}
	if cfg.MoveChunk <= 0 {
		cfg.MoveChunk = 16
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vtime.WallClock{}
	}
	g := &Gateway{
		cfg:           cfg,
		client:        client,
		handoffClient: &http.Client{Transport: client.Transport, Timeout: cfg.HandoffTimeout},
		reg:           telemetry.NewRegistry(),
		clock:         clock,
		standbys:      make(map[string]string),
		ring:          NewRing(cfg.Replicas),
		shards:        make(map[string]*shardHandle),
		epoch:         1,
	}
	g.m = &gwMetrics{
		proxied: g.reg.CounterVec("wearlock_gateway_proxied_total",
			"Unlock requests proxied to shards, by terminal HTTP status class.", "status"),
		passthru: g.reg.CounterVec("wearlock_gateway_backpressure_total",
			"Shard backpressure passed through to clients, by status code.", "code"),
		reroutes: g.reg.Counter("wearlock_gateway_reroutes_total",
			"Requests re-resolved after a shard answered 421 (ownership race during handoff)."),
		errors: g.reg.Counter("wearlock_gateway_shard_errors_total",
			"Shard calls that failed at the transport layer (degraded to 503 + Retry-After)."),
		handoffs: g.reg.Counter("wearlock_gateway_handoffs_total",
			"Completed range handoffs."),
		moved: g.reg.Counter("wearlock_gateway_handoff_devices_total",
			"Devices moved between shards by handoffs."),
		tailRecs: g.reg.Counter("wearlock_gateway_handoff_tail_records_total",
			"WAL tail records replayed onto handoff targets after the snapshot pass."),
		handoffSec: g.reg.FloatGauge("wearlock_gateway_handoff_seconds",
			"Duration of the most recent handoff (snapshot ship + fence + tail replay + flip)."),
		shardsUp: g.reg.Gauge("wearlock_gateway_shards",
			"Registered shards currently passing heartbeats."),
		epoch: g.reg.Gauge("wearlock_gateway_epoch",
			"Topology generation; increments on every membership change."),
		failovers: g.reg.Counter("wearlock_gateway_failovers_total",
			"Completed failovers: a warm standby promoted and routed in place of an unhealthy primary."),
		shardSec: g.reg.HistogramVec("wearlock_gateway_shard_seconds",
			"Round trip of one unlock on its shard's unlock stream, taking or dialling the stream included.",
			"shard", telemetry.ExponentialBuckets(0.0005, 2, 14)),
		dials: g.reg.Counter("wearlock_gateway_unlock_stream_dials_total",
			"Unlock streams dialled to shards (pooled streams are reused; a dial is a first use, a replacement or a re-point)."),
	}
	for _, sc := range cfg.Shards {
		if sc.BaseURL == "" {
			return nil, fmt.Errorf("cluster: shard %q has no base URL", sc.Name)
		}
		if _, dup := g.shards[sc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sc.Name)
		}
		if err := g.ring.AddShard(sc.Name); err != nil {
			return nil, err
		}
		g.shards[sc.Name] = g.newHandle(sc)
	}
	for name, url := range cfg.Standbys {
		if _, ok := g.shards[name]; !ok {
			return nil, fmt.Errorf("cluster: standby for unknown shard %q", name)
		}
		if url == "" {
			return nil, fmt.Errorf("cluster: shard %q has an empty standby URL", name)
		}
		g.standbys[name] = strings.TrimSuffix(url, "/")
	}
	g.table = g.ring.Assignments(cfg.TotalDevices)
	g.reg.Info("wearlock_gateway_build_info",
		"Gateway build metadata; constant 1.",
		map[string]string{"go_version": runtime.Version(), "wire_version": fmt.Sprint(WireVersion)})
	g.m.epoch.Set(int64(g.epoch))
	g.m.shardsUp.Set(int64(len(g.shards)))
	return g, nil
}

// newHandle builds a shard's handle, routed at its configured URL.
func (g *Gateway) newHandle(sc ShardConfig) *shardHandle {
	return &shardHandle{cfg: sc, baseURL: sc.BaseURL, hop: g.m.shardSec.With(sc.Name)}
}

// Registry exposes the gateway's own metrics registry.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Epoch returns the current topology generation.
func (g *Gateway) Epoch() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.epoch
}

// wireCall performs one framed wire exchange with a shard.
func wireCall[T any](ctx context.Context, client *http.Client, baseURL, path string, t MsgType, payload any, ack MsgType) (*T, error) {
	body, err := Encode(t, payload)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(baseURL, "/")+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", WireContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxWireSize+wireHeaderLen+1))
	if err != nil {
		return nil, err
	}
	// Both 200 acks and non-200 MsgError bodies decode through the same
	// path; DecodeAs surfaces the peer error either way. A non-200 is a
	// failed exchange even when an ack body decodes: an intermediary or
	// buggy shard answering 5xx with a stale ack must not read as success.
	out, derr := DecodeAs[T](data, ack)
	if resp.StatusCode != http.StatusOK {
		if derr != nil {
			return nil, fmt.Errorf("cluster: shard answered %d: %v", resp.StatusCode, derr)
		}
		return nil, fmt.Errorf("cluster: shard answered %d carrying a %s ack", resp.StatusCode, ack)
	}
	return out, derr
}

// call runs a wire exchange against a named shard.
func call[T any](ctx context.Context, g *Gateway, shard string, path string, t MsgType, payload any, ack MsgType) (*T, error) {
	h := g.handle(shard)
	if h == nil {
		return nil, fmt.Errorf("cluster: unknown shard %q", shard)
	}
	return wireCall[T](ctx, g.client, h.url(), path, t, payload, ack)
}

// hcall runs a handoff wire exchange against a named shard: the handoff
// client with a per-call HandoffTimeout budget, since a fenced export
// quiesces a whole move's devices before answering.
func hcall[T any](ctx context.Context, g *Gateway, shard string, path string, t MsgType, payload any, ack MsgType) (*T, error) {
	h := g.handle(shard)
	if h == nil {
		return nil, fmt.Errorf("cluster: unknown shard %q", shard)
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.HandoffTimeout)
	defer cancel()
	return wireCall[T](ctx, g.handoffClient, h.url(), path, t, payload, ack)
}

func (g *Gateway) handle(name string) *shardHandle {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shards[name]
}

// Register runs the handshake against every shard: protocol version,
// epoch, and the device set the effective routing (table plus any
// mid-handoff overrides) assigns it. Idempotent. Deriving from the
// table rather than the ring matters after an aborted join: committed
// moves live only in the table until the join resumes, and registering
// the ring's view would re-grant sources ranges whose counters have
// moved on.
func (g *Gateway) Register(ctx context.Context) error {
	g.mu.RLock()
	epoch := g.epoch
	assign := make(map[int]string, len(g.table))
	for d, s := range g.table {
		assign[d] = s
	}
	for d, s := range g.overrides {
		assign[d] = s
	}
	names := make([]string, 0, len(g.shards))
	for name := range g.shards {
		names = append(names, name)
	}
	g.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		owned := ownedIn(assign, name)
		ack, err := call[RegisterResponse](ctx, g, name, "/cluster/v1/register", MsgRegister, &RegisterRequest{
			ShardID:      name,
			Epoch:        epoch,
			TotalDevices: g.cfg.TotalDevices,
			Owned:        owned,
		}, MsgRegisterAck)
		if err != nil {
			return fmt.Errorf("cluster: registering shard %q: %w", name, err)
		}
		if ack.Devices < g.cfg.TotalDevices {
			return fmt.Errorf("cluster: shard %q fleet %d smaller than device space %d",
				name, ack.Devices, g.cfg.TotalDevices)
		}
		h := g.handle(name)
		h.mu.Lock()
		h.ready = ack.Ready
		h.mu.Unlock()
	}
	return nil
}

// HeartbeatOnce probes every shard once and updates health state. A
// shard crossing the miss threshold with a configured warm standby
// triggers a failover: fence the epoch, promote the standby, re-point
// routing (see failover.go). The decision is purely miss-count driven,
// so tests advance it by calling this directly — no wall clock involved.
func (g *Gateway) HeartbeatOnce(ctx context.Context) {
	g.mu.RLock()
	epoch := g.epoch
	handles := make(map[string]*shardHandle, len(g.shards))
	for name, h := range g.shards {
		handles[name] = h
	}
	g.mu.RUnlock()
	up := 0
	var failed []string
	for name, h := range handles {
		ack, err := wireCall[HeartbeatResponse](ctx, g.client, h.url(),
			"/cluster/v1/heartbeat", MsgHeartbeat, &HeartbeatRequest{Epoch: epoch}, MsgHeartbeatAck)
		h.mu.Lock()
		if err != nil {
			h.misses++
			h.lastErr = err.Error()
			if h.misses >= g.cfg.HeartbeatMisses {
				h.unhealthy = true
				// Re-arm on every beat past the threshold: a promote call
				// that failed (standby still bootstrapping, say) is retried
				// until it lands or no standby is configured.
				if !h.failing && g.standbyFor(name) != "" {
					h.failing = true
					failed = append(failed, name)
				}
			}
		} else {
			h.misses = 0
			h.unhealthy = false
			h.lastErr = ""
			h.ready = ack.Ready
			h.lastBeat = g.clock.Now()
		}
		if !h.unhealthy {
			up++
		}
		h.mu.Unlock()
	}
	g.m.shardsUp.Set(int64(up))
	for _, name := range failed {
		h := handles[name]
		err := g.Failover(ctx, name)
		h.mu.Lock()
		h.failing = false
		if err != nil {
			h.lastErr = err.Error()
		}
		h.mu.Unlock()
	}
}

// StartHeartbeats launches the periodic liveness probe; the returned
// stop function is idempotent.
func (g *Gateway) StartHeartbeats() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(g.cfg.HeartbeatEvery)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HeartbeatEvery)
				g.HeartbeatOnce(ctx)
				cancel()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ownedIn lists the devices an assignment table maps to the named
// shard, ascending.
func ownedIn(assign map[int]string, name string) []int {
	var owned []int
	for d, s := range assign {
		if s == name {
			owned = append(owned, d)
		}
	}
	sort.Ints(owned)
	return owned
}

// shardFor resolves a device's current owner, honoring mid-handoff
// overrides.
func (g *Gateway) shardFor(device int) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if name, ok := g.overrides[device]; ok {
		return name
	}
	return g.table[device]
}

// Topology is the /cluster/v1/topology response.
type Topology struct {
	Epoch     uint64           `json:"epoch"`
	Devices   int              `json:"devices"`
	Migrating bool             `json:"migrating"`
	Shards    []TopologyShard  `json:"shards"`
	Owners    map[string][]int `json:"owners"`
}

// TopologyShard is one shard's row in the topology report.
type TopologyShard struct {
	Name      string `json:"name"`
	BaseURL   string `json:"base_url"`
	Ready     bool   `json:"ready"`
	Unhealthy bool   `json:"unhealthy"`
	LastError string `json:"last_error,omitempty"`
	Owned     int    `json:"owned"`
	// Standby is the configured (unpromoted) warm-standby URL, if any.
	Standby string `json:"standby,omitempty"`
	// Failovers counts promotions that re-pointed this shard's routing.
	Failovers int `json:"failovers,omitempty"`
}

// Topology snapshots the routing state.
func (g *Gateway) Topology() Topology {
	g.mu.RLock()
	table := g.table
	epoch := g.epoch
	migrating := g.migrating
	names := make([]string, 0, len(g.shards))
	for name := range g.shards {
		names = append(names, name)
	}
	overrides := make(map[int]string, len(g.overrides))
	for d, s := range g.overrides {
		overrides[d] = s
	}
	g.mu.RUnlock()
	sort.Strings(names)

	owners := make(map[string][]int, len(names))
	for d := 0; d < g.cfg.TotalDevices; d++ {
		owner, ok := overrides[d]
		if !ok {
			owner = table[d]
		}
		owners[owner] = append(owners[owner], d)
	}
	top := Topology{Epoch: epoch, Devices: g.cfg.TotalDevices, Migrating: migrating, Owners: owners}
	for _, name := range names {
		h := g.handle(name)
		h.mu.Lock()
		top.Shards = append(top.Shards, TopologyShard{
			Name:      name,
			BaseURL:   h.baseURL,
			Ready:     h.ready,
			Unhealthy: h.unhealthy,
			LastError: h.lastErr,
			Owned:     len(owners[name]),
			Standby:   g.standbyFor(name),
			Failovers: h.failovers,
		})
		h.mu.Unlock()
	}
	return top
}

// ErrMigrating is returned (as a 503 to clients) when routing cannot
// settle during a topology change.
var ErrMigrating = errors.New("cluster: range migrating, retry")
