// Package service is wearlockd's core: a long-running unlock-session
// daemon over the deterministic protocol stack. It owns a fleet of
// simulated phone↔watch device pairs, admits unlock requests through a
// bounded worker pool (queue-full submissions are rejected so the HTTP
// layer can answer 429), serializes sessions per device (each
// core.System carries live OTP/keyguard state), enforces per-request
// deadlines through context, garbage-collects finished sessions after a
// TTL, drains gracefully on shutdown, and publishes live metrics through
// an internal/telemetry registry.
//
// The layering mirrors the batch side: core.RunBatch fans one-shot jobs
// over a transient sim.Pool, while Service keeps one sim.Pool alive for
// the daemon's lifetime and feeds it request-by-request.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/sim"
	"wearlock/internal/store"
	"wearlock/internal/telemetry"
	"wearlock/internal/vtime"
)

// Service errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is the admission-control rejection: every worker is
	// busy and the queue is at its bound. HTTP: 429 + Retry-After.
	ErrQueueFull = errors.New("service: session queue full")
	// ErrDraining rejects submissions during graceful shutdown. HTTP: 503.
	ErrDraining = errors.New("service: draining")
	// ErrUnknownScenario rejects requests naming no configured scenario.
	// HTTP: 400.
	ErrUnknownScenario = errors.New("service: unknown scenario")
	// ErrUnknownDevice rejects requests pinning an out-of-range device
	// index. HTTP: 400.
	ErrUnknownDevice = errors.New("service: unknown device")
	// ErrRecovering rejects submissions while startup replay of the
	// durable store is still running. HTTP: 503 (the /readyz endpoint
	// reports "recovering" for the same window).
	ErrRecovering = errors.New("service: recovering durable state")
)

// Config parameterizes the daemon.
type Config struct {
	// Devices is the simulated phone↔watch fleet size. Sessions on one
	// device serialize; the fleet bound is therefore also the maximum
	// unlock parallelism.
	Devices int
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queued-but-not-running sessions; beyond it,
	// Submit returns ErrQueueFull. <= 0 means 2x workers.
	QueueDepth int
	// SessionTTL is how long finished sessions stay queryable before the
	// garbage collector drops them.
	SessionTTL time.Duration
	// GCInterval is the sweep period; <= 0 derives SessionTTL/4.
	GCInterval time.Duration
	// RequestTimeout bounds each session's wall clock when the request
	// carries no explicit deadline.
	RequestTimeout time.Duration
	// Seed derives every device's private random stream.
	Seed int64
	// Core is the WearLock deployment configuration every device runs.
	Core core.Config
	// Scenarios is the named scenario catalog; nil means every
	// service-tagged instance of the declarative registry
	// (catalog.ServiceScenarios()).
	Scenarios map[string]core.Scenario
	// Chaos, when non-nil, arms the fault schedule: every admitted session
	// rolls its faults from (Seed, session sequence) and runs under the
	// core resilience policy (enabled automatically if the core config
	// left it off). pool-exhaust faults reject at admission with
	// ErrQueueFull, like genuine overload.
	Chaos *fault.Schedule
	// StateDir, when non-empty, arms the durable store: device state is
	// committed after every session, recovered (snapshot + WAL replay)
	// before the daemon accepts traffic, and compacted on graceful drain.
	StateDir string
	// SnapshotEvery compacts the WAL after this many records; <= 0 means
	// 1024. Only meaningful with StateDir.
	SnapshotEvery int
	// NoFsync skips per-commit fsyncs in the store — tests and
	// benchmarks only (commits then survive kill -9 but not power loss).
	// The daemon exports wearlockd_fsync_disabled=1 so load gates can
	// refuse to certify runs whose durability was faked.
	NoFsync bool
	// WALSegmentBytes rolls the store's WAL to a fresh segment at this
	// size; <= 0 uses the store default (4 MiB). Only meaningful with
	// StateDir.
	WALSegmentBytes int64
	// CommitMaxBatch caps how many concurrent session commits share one
	// fsync; <= 0 uses the store default (256).
	CommitMaxBatch int
	// CommitMaxDelay bounds how long the store's group committer keeps
	// absorbing arrivals into a growing batch; <= 0 uses the store
	// default (~2ms). A lone commit never waits.
	CommitMaxDelay time.Duration
	// Clock supplies time for session TTL GC, Retry-After math, and
	// uptime. nil means the wall clock (daemon mode); tests and
	// virtual-time benches inject vtime.NewManualClock so "wait for the
	// TTL" becomes an Advance call instead of a sleep.
	Clock vtime.Clock
	// ShardID is this daemon's cluster identity: stamped onto
	// wearlockd_build_info (the gateway's aggregated /metrics adds it as a
	// shard label too) and echoed in wire acks. Empty means standalone.
	ShardID string
	// Follow boots the daemon as a warm standby: it refuses unlock
	// traffic (503 ErrFollowing) and instead applies a primary's
	// replication stream (GET /replica/v1/stream) until a promote order
	// flips it into a serving primary. Requires StateDir.
	Follow bool
	// ReplicaMaxLag is the bounded-lag acknowledgement window when this
	// daemon ships to a follower: a session is acknowledged once the
	// follower's acks trail its commit by at most this many records.
	// 0 is synchronous replication (the follower must cover the exact
	// commit before the ack). Ignored until a follower attaches.
	ReplicaMaxLag int
	// PaceAirtime, when positive, holds each session's device for
	// PaceAirtime × the session's simulated protocol timeline after the
	// CPU work finishes. The simulation computes a ~1.4 s acoustic
	// exchange in ~20 ms of CPU; pacing restores the real channel's
	// occupancy so a device (and its worker slot) is busy for wall-clock
	// time proportional to airtime — which is what makes per-shard
	// capacity worker-bounded and lets a cluster scale session throughput
	// with shard count instead of raw CPU. 0 disables pacing.
	PaceAirtime float64
}

// DefaultConfig returns a daemon sized for the acceptance load: 64
// devices so 64 sessions can be in flight, a queue of 128 behind them.
func DefaultConfig() Config {
	return Config{
		Devices:        64,
		Workers:        0, // GOMAXPROCS
		QueueDepth:     128,
		SessionTTL:     2 * time.Minute,
		RequestTimeout: 30 * time.Second,
		Seed:           42,
		Core:           core.DefaultConfig(),
	}
}

// Request asks for one unlock session.
type Request struct {
	// Scenario names an entry of the catalog; empty means "default".
	Scenario string
	// Device pins the session to a device pair; negative picks
	// round-robin.
	Device int
	// Timeout overrides Config.RequestTimeout when positive.
	Timeout time.Duration
}

// SessionState is a session's lifecycle position.
type SessionState int

// Session lifecycle states.
const (
	StateQueued SessionState = iota + 1
	StateRunning
	StateDone   // session ran to a terminal core.Outcome
	StateFailed // session errored (deadline, cancellation, internal)
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("SessionState(%d)", int(s))
	}
}

// Session tracks one unlock request from admission to GC.
type Session struct {
	Scenario string
	Device   int
	// seq is the admission sequence: the session's ID (see ID) and its
	// key in Service.sessions.
	seq uint64

	// svc, timeout and faults are what the session runs with besides
	// its device and scenario; set at admission, read by the worker.
	svc     *Service
	timeout time.Duration
	faults  *fault.SessionFaults

	mu    sync.Mutex
	state SessionState
	// submitted and finished are offsets from Service.started on the
	// service's clock. finished is written once, with the terminal
	// state, holding both Service.mu and mu, so either lock reads it.
	submitted time.Duration
	finished  time.Duration
	answer    Answer // zero until the session ran
	err       error
	// nextFinished links the service's finished sessions in finish
	// order, for the GC sweep; Service.mu guards it.
	nextFinished *Session

	// done is nil until a Wait needs it, then closed when the session
	// ends; once the session has ended it is closedChan. wake is the one
	// waiter channel await registered, signalled once when the session
	// ends. mu guards both.
	done chan struct{}
	wake chan struct{}
}

// closedChan is the done channel of every session that has ended.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ID returns the session's ID: "s-" and its admission sequence,
// zero-padded to eight digits.
func (sess *Session) ID() string { return sessionID(sess.seq) }

// View is an immutable snapshot of a session for serialization.
type View struct {
	ID       string  `json:"id"`
	Scenario string  `json:"scenario"`
	Device   int     `json:"device"`
	State    string  `json:"state"`
	Outcome  string  `json:"outcome,omitempty"`
	Unlocked bool    `json:"unlocked"`
	Detail   string  `json:"detail,omitempty"`
	Error    string  `json:"error,omitempty"`
	BER      float64 `json:"ber"`
	EbN0dB   float64 `json:"ebn0_db"`
	// UnlockDelayMS is the simulated end-to-end protocol delay (the
	// paper's Fig. 12 metric); WallMS is daemon wall clock including
	// queueing.
	UnlockDelayMS float64 `json:"unlock_delay_ms"`
	WallMS        float64 `json:"wall_ms"`
	// seq, when non-zero, is the session's admission sequence, from
	// which appendView writes the ID: a view rendered for the wire
	// leaves ID empty and carries no string of its own.
	seq uint64
}

// Snapshot renders the session's current state.
func (sess *Session) Snapshot() View {
	v := sess.view()
	v.ID = sessionID(v.seq)
	return v
}

// view is Snapshot with the ID left to appendView.
func (sess *Session) view() View {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	v := View{
		seq:      sess.seq,
		Scenario: sess.Scenario,
		Device:   sess.Device,
		State:    sess.state.String(),
		BER:      -1,
	}
	if sess.err != nil {
		v.Error = sess.err.Error()
	}
	if a := sess.answer; a.Outcome != 0 {
		v.Outcome = a.Outcome.String()
		v.Unlocked = a.Unlocked
		v.Detail = a.Detail
		// encoding/json refuses NaN/Inf after the status line is already
		// written, truncating the response body — never let a degenerate
		// measurement reach the wire.
		v.BER = finiteOr(a.BER, -1)
		v.EbN0dB = finiteOr(a.EbN0dB, 0)
		v.UnlockDelayMS = float64(a.Delay.Microseconds()) / 1000
	}
	if sess.state == StateDone || sess.state == StateFailed {
		v.WallMS = float64((sess.finished - sess.submitted).Microseconds()) / 1000
	}
	return v
}

// finiteOr replaces NaN/±Inf with a JSON-safe fallback.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fallback
	}
	return v
}

// Wait blocks until the session reaches a terminal state or ctx ends.
func (sess *Session) Wait(ctx context.Context) error {
	sess.mu.Lock()
	if sess.done == nil {
		sess.done = make(chan struct{})
	}
	done := sess.done
	sess.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// await is Wait on the caller's own wake channel — capacity one, empty,
// kept by the caller across sessions — so waiting costs the session no
// channel of its own (DESIGN.md §10.2). The session signals wake only
// while wake is registered, and a waiter leaving on ctx either
// unregisters it or takes the signal already on its way: wake is empty
// again when await returns, whatever the outcome.
func (sess *Session) await(ctx context.Context, wake chan struct{}) error {
	sess.mu.Lock()
	switch {
	case sess.done == closedChan:
		sess.mu.Unlock()
		return nil
	case sess.wake != nil:
		sess.mu.Unlock()
		return sess.Wait(ctx)
	}
	sess.wake = wake
	sess.mu.Unlock()
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
	}
	sess.mu.Lock()
	if sess.wake == wake {
		sess.wake = nil
		sess.mu.Unlock()
		return ctx.Err()
	}
	sess.mu.Unlock()
	<-wake // the session ended as ctx did; its signal is on the way
	return nil
}

// release marks the session ended and wakes its waiters.
func (sess *Session) release() {
	sess.mu.Lock()
	done, wake := sess.done, sess.wake
	sess.done, sess.wake = closedChan, nil
	sess.mu.Unlock()
	if done != nil {
		close(done)
	}
	if wake != nil {
		wake <- struct{}{}
	}
}

// Answer returns what the session kept of its terminal result; ok is
// false while it is unfinished or when its protocol session never ran to
// an outcome.
func (sess *Session) Answer() (a Answer, ok bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.answer, sess.answer.Outcome != 0
}

// Answer is what a finished session keeps of its core.Result: the fields
// Snapshot and the session metrics read, copied out of the device's
// Result before the device runs its next session into it (DESIGN.md §8).
type Answer struct {
	Outcome  core.Outcome
	Unlocked bool
	Detail   string
	BER      float64
	EbN0dB   float64
	// Delay is the simulated end-to-end protocol delay,
	// Timeline.Total().
	Delay time.Duration
	// Decode is the phase-2 receive time: the timeline's
	// phase2/pre-processing plus phase2/demodulation steps.
	Decode      time.Duration
	Attempts    int
	Degradation core.DegradationLevel
}

// answerOf copies res's answer out.
func answerOf(res *core.Result) Answer {
	return Answer{
		Outcome:     res.Outcome,
		Unlocked:    res.Unlocked,
		Detail:      res.Detail,
		BER:         res.BER,
		EbN0dB:      res.EbN0dB,
		Delay:       res.Timeline.Total(),
		Decode:      res.Timeline.TotalFor("phase2/pre-processing") + res.Timeline.TotalFor("phase2/demodulation"),
		Attempts:    res.Attempts,
		Degradation: res.Degradation,
	}
}

// Err returns the session's terminal error, if any.
func (sess *Session) Err() error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.err
}

// devicePair is one simulated phone↔watch pairing. mu serializes unlock
// sessions: a System's OTP counters, keyguard, and clock are stateful.
// src is the device's counted random source: its draw position is part
// of the durable state, so a restarted daemon can fast-forward a fresh
// stream to exactly where the crashed process left off.
//
// res is the Result every session on the pair runs into (under mu, made
// by the pair's first session); a session keeps only the Answer it copies
// out before mu is released.
//
// A pair is built on first touch: sys and src stay nil until lock()
// builds them from seed, so a daemon's set-up costs nothing per device.
// The stream is private to the device and its key is always the first
// draws of it, so a pair built late is the pair eager construction
// would have built. Recovery likewise leaves a device the log names
// unbuilt and hands it its record; the build restores it, so a pair
// restored late is the pair an eager restore would have left.
type devicePair struct {
	id   int
	seed int64        // sim.SeedFor(Config.Seed, id)
	cfg  *core.Config // the deployment every device runs (validated)
	mu   sync.Mutex
	sys  *core.System
	src  *sim.CountingSource
	res  *core.Result
	// key is exportDevice's storage for the exported pairing key.
	key []byte
	// recovered is the durable record recovery checked and left for the
	// first build to restore; nil once applied or when there is none.
	recovered *store.DeviceState
}

// lock takes mu, building the pair the first time (and restoring its
// recovered record, if any). It is the only way in: sys, src and
// recovered are read and written under mu alone.
func (d *devicePair) lock() {
	d.mu.Lock()
	if d.sys != nil {
		return
	}
	src := sim.NewCountingSource(d.seed)
	sys, err := core.NewSystem(*d.cfg, rand.New(src))
	if err == nil {
		d.sys, d.src = sys, src
		if ds := d.recovered; ds != nil {
			d.recovered = nil
			err = d.restoreLocked(*ds)
		}
	}
	if err != nil {
		// New validated the config and recovery ran core.CheckRestore on
		// the record, which between them reject everything the build and
		// the restore can fail on; reaching here is a bug in that contract.
		d.mu.Unlock()
		panic(fmt.Sprintf("service: building device %d: %v", d.id, err))
	}
}

// metrics bundles the registry handles the hot path updates.
type metrics struct {
	sessions      *telemetry.CounterVec
	rejected      *telemetry.CounterVec
	queueDepth    *telemetry.Gauge
	inflight      *telemetry.Gauge
	tracked       *telemetry.Gauge
	gced          *telemetry.Counter
	manualUnlocks *telemetry.Counter
	retries       *telemetry.Counter
	degraded      *telemetry.Counter
	fallback      *telemetry.Counter
	wallSeconds   *telemetry.Histogram
	unlockDelay   *telemetry.Histogram
	decodeSeconds *telemetry.Histogram
	ber           *telemetry.Histogram
	ebn0          *telemetry.Histogram

	recoverySeconds        *telemetry.FloatGauge
	recoveryReplaySeconds  *telemetry.FloatGauge
	recoveryRestoreSeconds *telemetry.FloatGauge
	recoveryFallbacks      *telemetry.Gauge
	walRecords             *telemetry.Counter
	corruptions            *telemetry.Counter
	repairs                *telemetry.Counter
	commitSeconds          *telemetry.Histogram
	walBatchSize           *telemetry.Histogram
	fsyncDisabled          *telemetry.Gauge

	replAttached       *telemetry.Gauge
	replDetaches       *telemetry.Counter
	replAppliedBatches *telemetry.Counter
	replPromotions     *telemetry.Counter
	replStreamDials    *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		sessions: reg.CounterVec("wearlockd_sessions_total",
			"Finished unlock sessions by terminal outcome ('error' for failed sessions).", "outcome"),
		rejected: reg.CounterVec("wearlockd_rejected_total",
			"Submissions rejected before running, by reason.", "reason"),
		queueDepth: reg.Gauge("wearlockd_queue_depth",
			"Sessions admitted but not yet picked up by a worker."),
		inflight: reg.Gauge("wearlockd_inflight_sessions",
			"Sessions currently executing on a worker."),
		tracked: reg.Gauge("wearlockd_tracked_sessions",
			"Sessions currently held in the store (pre-GC)."),
		gced: reg.Counter("wearlockd_sessions_gced_total",
			"Finished sessions dropped by the TTL garbage collector."),
		manualUnlocks: reg.Counter("wearlockd_manual_unlocks_total",
			"Simulated PIN fallbacks clearing a locked-out keyguard."),
		retries: reg.Counter("wearlockd_retries_total",
			"Unlock attempts beyond the first, summed over resilient sessions."),
		degraded: reg.Counter("wearlockd_degraded_total",
			"Sessions that unlocked only after stepping down the degradation ladder (robust mode or tone ACK)."),
		fallback: reg.Counter("wearlockd_fallback_total",
			"Sessions whose resilience ladder exhausted and fell back to manual PIN."),
		wallSeconds: reg.Histogram("wearlockd_session_wall_seconds",
			"Daemon wall clock per session, admission to finish.",
			telemetry.ExponentialBuckets(0.001, 2, 14)),
		unlockDelay: reg.Histogram("wearlockd_unlock_delay_seconds",
			"Simulated end-to-end unlock delay (protocol timeline total).",
			telemetry.ExponentialBuckets(0.05, 1.5, 12)),
		decodeSeconds: reg.Histogram("wearlockd_decode_seconds",
			"Simulated phase-2 receive-pipeline time (pre-processing + demodulation).",
			telemetry.ExponentialBuckets(0.0005, 2, 12)),
		ber: reg.Histogram("wearlockd_ber",
			"Raw channel BER over sessions that reached demodulation.",
			telemetry.LinearBuckets(0, 0.05, 11)),
		ebn0: reg.Histogram("wearlockd_ebn0_db",
			"Probe-estimated Eb/N0 over sessions that measured one.",
			telemetry.LinearBuckets(-5, 5, 12)),
		recoverySeconds: reg.FloatGauge("wearlockd_recovery_seconds",
			"Startup durable-state recovery time (snapshot load + WAL replay + record checks and re-pairs); 0 when no state dir is configured."),
		recoveryReplaySeconds: reg.FloatGauge("wearlockd_recovery_replay_seconds",
			"Startup log-replay time within recovery (store open: snapshot load + segmented WAL replay); 0 when no state dir is configured."),
		recoveryRestoreSeconds: reg.FloatGauge("wearlockd_recovery_restore_seconds",
			"Startup device-restore time within recovery (checking each record the log names + re-pairing the devices it cannot trust); a trusted device restores at its first touch, outside this window; 0 when no state dir is configured."),
		recoveryFallbacks: reg.Gauge("wearlockd_recovery_decode_fallbacks",
			"Snapshot, checkpoint and WAL payloads recovery decoded through encoding/json because they left the canonical record layout; 0 on a log this build wrote."),
		walRecords: reg.Counter("wearlockd_wal_records_total",
			"Durable WAL records committed by this process."),
		corruptions: reg.Counter("wearlockd_store_corruptions_total",
			"Store corruption events detected at recovery (bit rot, lost framing, snapshot damage, missing WAL)."),
		repairs: reg.Counter("wearlockd_store_repairs_total",
			"Devices re-paired with a fresh key because recovery could not trust their durable counters."),
		commitSeconds: reg.Histogram("wearlockd_commit_seconds",
			"Durable commit latency per session: enqueue on the group committer to fsynced.",
			telemetry.ExponentialBuckets(0.00005, 2, 14)),
		walBatchSize: reg.Histogram("wearlockd_wal_batch_size",
			"Records per group-commit batch (one fsync each).",
			telemetry.ExponentialBuckets(1, 2, 10)),
		fsyncDisabled: reg.Gauge("wearlockd_fsync_disabled",
			"1 when the store runs with fsync disabled (-no-fsync): commits do not survive power loss and consistency gates must not certify the run."),
		replAttached: reg.Gauge("wearlockd_replica_attached",
			"1 while a follower is attached and riding the live commit tail (the promotable state)."),
		replDetaches: reg.Counter("wearlockd_replica_detaches_total",
			"Times the shipper gave up on an unreachable follower and released waiters (the documented allowed-loss window opens)."),
		replAppliedBatches: reg.Counter("wearlockd_replica_applied_batches_total",
			"Replication batches this follower applied durably (resets + live)."),
		replPromotions: reg.Counter("wearlockd_replica_promotions_total",
			"Promote orders this daemon executed (follower → serving primary)."),
		replStreamDials: reg.Counter("wearlockd_replica_stream_dials_total",
			"Replication stream connections this primary dialled to its follower: one per attach while the stream is healthy, more when it churns."),
	}
}

// Service is the daemon core.
type Service struct {
	cfg       Config
	scenarios map[string]core.Scenario
	pool      *sim.Pool
	devices   []*devicePair
	nextDev   atomic.Uint64
	reg       *telemetry.Registry
	m         *metrics
	clock     vtime.Clock
	started   time.Time

	// wallEWMA is the exponentially-weighted mean session wall time in
	// nanoseconds (float64 bits), fed by every finished session; the
	// Retry-After estimate reads it to predict queue drain pace.
	wallEWMA atomic.Uint64

	// unlock runs one session on a device; tests swap it to control
	// timing precisely.
	unlock func(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error)

	mu       sync.Mutex
	sessions map[uint64]*Session
	seq      uint64
	draining bool
	// firstFinished and lastFinished (under mu) bound the finished
	// sessions, linked in finish order, so a GC sweep visits only the
	// ones it drops.
	firstFinished, lastFinished *Session

	inflight sync.WaitGroup
	gcStop   chan struct{}
	gcDone   chan struct{}

	// Durability (nil/zero when Config.StateDir is empty). ready closes
	// once startup recovery finishes; Submit rejects until then.
	store    *store.Store
	ready    chan struct{}
	recovery Recovery

	// shard is the cluster-membership view (inert until a gateway
	// registers this daemon; see shard.go).
	shard shardState

	// repl is the warm-standby replication role (replica.go); replClient
	// carries both directions' control traffic.
	repl       replState
	replClient *http.Client

	// unlockStreams serves the gateway's unlock streams (http.go).
	unlockStreams *cluster.StreamServer

	// ctxs holds the *sessionCtx each running session borrows; wakes
	// and bodies hold the wake channels and body buffers POST /v1/unlock
	// handlers borrow (http.go). Each fills as load needs it.
	ctxs   sync.Pool
	wakes  sync.Pool
	bodies sync.Pool
}

// New lays out the device fleet (each pair builds on first touch),
// starts the worker pool and the session garbage collector, and returns
// a serving Service.
func New(cfg Config) (*Service, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("service: device fleet size %d must be positive", cfg.Devices)
	}
	if cfg.SessionTTL <= 0 {
		return nil, fmt.Errorf("service: session TTL must be positive")
	}
	if cfg.RequestTimeout <= 0 {
		return nil, fmt.Errorf("service: request timeout must be positive")
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("service: chaos schedule: %w", err)
		}
		// Chaos without resilience would strand sessions in bare aborts;
		// the ladder is what maps every fault to a defined end state.
		if !cfg.Core.Resilience.Enabled {
			cfg.Core.Resilience = core.DefaultResilience()
		}
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, fmt.Errorf("service: core config: %w", err)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.SessionTTL / 4
	}
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = catalog.ServiceScenarios()
	}
	for name, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("service: scenario %q: %w", name, err)
		}
	}

	clock := cfg.Clock
	if clock == nil {
		clock = vtime.WallClock{}
	}
	s := &Service{
		cfg:       cfg,
		scenarios: scenarios,
		pool:      sim.NewPool(cfg.Workers, cfg.QueueDepth),
		reg:       telemetry.NewRegistry(),
		clock:     clock,
		started:   clock.Now(),
		sessions:  make(map[uint64]*Session),
		gcStop:    make(chan struct{}),
		gcDone:    make(chan struct{}),
	}
	s.ctxs.New = func() any { return new(sessionCtx) }
	s.wakes.New = func() any { return make(chan struct{}, 1) }
	s.bodies.New = func() any { return new([]byte) }
	s.m = newMetrics(s.reg)
	s.replClient = newReplClient()
	s.repl.inbound = cluster.NewStreamServer(replStreamProto)
	s.unlockStreams = cluster.NewStreamServer(cluster.UnlockStreamProto)
	if cfg.Follow {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("service: follower mode requires a durable state dir")
		}
		// Following starts immediately: the standby must refuse unlock
		// traffic even before FollowPrimary's handshake lands.
		s.repl.following = true
	}
	buildLabels := map[string]string{"go_version": runtime.Version()}
	if cfg.ShardID != "" {
		buildLabels["shard_id"] = cfg.ShardID
	}
	s.reg.Info("wearlockd_build_info",
		"Daemon build and cluster-identity metadata; constant 1.", buildLabels)
	s.unlock = s.runOnDevice

	// Every device gets a private stream derived from (Seed, device): the
	// same contract batch jobs use, so a device's session sequence is
	// reproducible regardless of traffic interleaving on other devices.
	// The counting wrapper is value-transparent; its draw position becomes
	// part of the device's durable state. Each pair builds on first touch.
	s.devices = make([]*devicePair, cfg.Devices)
	for i := range s.devices {
		s.devices[i] = &devicePair{id: i, seed: sim.SeedFor(cfg.Seed, int64(i)), cfg: &s.cfg.Core}
	}

	s.ready = make(chan struct{})
	if cfg.StateDir != "" {
		// Recovery runs off the constructor so the HTTP layer can come up
		// immediately and report "recovering" on /readyz; Submit rejects
		// with ErrRecovering until the replay completes.
		go s.recoverState()
	} else {
		close(s.ready)
	}

	go s.gcLoop()
	return s, nil
}

// Registry exposes the metrics registry (the /metrics endpoint renders
// it).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Scenarios lists the configured scenario names.
func (s *Service) Scenarios() []string { return ScenarioNames(s.scenarios) }

// runOnDevice is the production unlock path: serialize on the device,
// run the protocol session, and clear lockouts like a user typing their
// PIN would, so a device pair survives hostile traffic.
//
// The durable commit is enqueued while the device lock is held (the
// exported state must be the session's own), but awaited after the lock
// is released: the next session on this device can start its CPU work
// while this one's batch is still in flight to the disk, and commits
// from concurrent devices share fsyncs in the store's group committer.
// The accepted⇒durable promise is untouched — this session is not
// reported done until its handle resolves.
func (s *Service) runOnDevice(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error) {
	dev.lock()
	// A session admitted before a handoff fence but scheduled after it
	// must not advance counters the fenced tail export already shipped,
	// nor, once the release has dropped the fence with the ownership,
	// counters the target now serves from: admission is re-checked in
	// full under the device lock, where export quiesces.
	if err := s.shardAdmit(dev.id); err != nil {
		dev.mu.Unlock()
		return Answer{}, err
	}
	// The session runs into the pair's own Result; its answer is copied
	// out here, before mu is released and the next session reuses it.
	if dev.res == nil {
		dev.res = new(core.Result)
	}
	var ans Answer
	err := dev.sys.UnlockInto(ctx, sc, nil, dev.res)
	if err == nil {
		ans = answerOf(dev.res)
	}
	// With the resilience ladder on, a lockout already ended in the PIN
	// fallback (OutcomeFallbackPIN), so this only fires for classic
	// sessions.
	if ans.Outcome == core.OutcomeLockedOut {
		dev.sys.ManualUnlock()
		s.m.manualUnlocks.Inc()
	}
	// Accepted ⇒ durable: the session is only reported done after its
	// counter advances hit the platter. Sessions that errored still
	// commit — whatever counters moved before the error must not be
	// replayable after a crash either.
	commit := s.persistDeviceAsync(dev)
	// Airtime pacing holds the device (and this worker slot) for the
	// scaled protocol timeline, modeling the acoustic channel's real
	// occupancy. Done while dev.mu is held: the channel is busy, so the
	// device is. The commit rides the channel-occupancy window.
	if s.cfg.PaceAirtime > 0 {
		if d := time.Duration(float64(ans.Delay) * s.cfg.PaceAirtime); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
	}
	dev.mu.Unlock()

	if cerr := commit.await(s, dev.id); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		// Accepted ⇒ durable ⇒ replicated-or-fenced: with a follower
		// attached, the session also waits until the standby's acks cover
		// its commit (or trail it by at most the bounded-lag window). A
		// fence here fails the session rather than acknowledge state the
		// cluster has moved past.
		err = s.replWaitReplicated(ctx, commit)
	}
	commit.release()
	return ans, err
}

// Submit admits one unlock request. On success the session is queued and
// trackable; rejection returns ErrQueueFull (back off and retry),
// ErrDraining, ErrUnknownScenario, or ErrUnknownDevice without side
// effects.
func (s *Service) Submit(req Request) (*Session, error) {
	name := req.Scenario
	if name == "" {
		name = "default"
	}
	sc, ok := s.scenarios[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownScenario, name)
	}
	if req.Device >= len(s.devices) {
		return nil, fmt.Errorf("%w %d (fleet size %d)", ErrUnknownDevice, req.Device, len(s.devices))
	}
	select {
	case <-s.ready:
		if err := s.recovery.Err; err != nil {
			// Recovery failed permanently; durability cannot be promised.
			s.m.rejected.With("recovering").Inc()
			return nil, fmt.Errorf("%w: %v", ErrRecovering, err)
		}
	default:
		s.m.rejected.With("recovering").Inc()
		return nil, ErrRecovering
	}
	if s.isFollowing() {
		s.m.rejected.With("following").Inc()
		return nil, ErrFollowing
	}
	dev := s.pickDevice(req.Device)
	if err := s.shardAdmit(dev.id); err != nil {
		if errors.Is(err, ErrFenced) {
			s.m.rejected.With("fenced").Inc()
		} else {
			s.m.rejected.With("not_owned").Inc()
		}
		return nil, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.RequestTimeout
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejected.With("draining").Inc()
		return nil, ErrDraining
	}
	s.seq++
	if s.cfg.Chaos != nil {
		// Faults derive from (seed, admission sequence) — the SeedFor
		// contract — so a chaos run's fault pattern is a pure function of
		// the schedule and the traffic order.
		sf := fault.ForSession(s.cfg.Chaos, s.cfg.Seed, int64(s.seq))
		if sf.PoolExhausted() {
			seq := s.seq
			s.mu.Unlock()
			s.m.rejected.With("chaos_pool_exhausted").Inc()
			// The rejection consumed an admission sequence (= a fault
			// stream); persist it so a restarted daemon doesn't replay
			// this session's faults onto a different request.
			s.persistServiceSeq(seq)
			return nil, ErrQueueFull
		}
		sc.Faults = sf
	}
	sess := &Session{
		seq:       s.seq,
		Scenario:  name,
		Device:    dev.id,
		svc:       s,
		timeout:   timeout,
		faults:    sc.Faults,
		state:     StateQueued,
		submitted: s.clock.Now().Sub(s.started),
	}
	// The inflight count covers queued work too, and is raised under mu
	// so Drain (which flips draining under the same lock before waiting)
	// can never miss an admitted session. The session is tracked before
	// it can run, so it is in sessions before it can finish and expire.
	s.inflight.Add(1)
	s.sessions[sess.seq] = sess
	s.m.tracked.Set(int64(len(s.sessions)))
	s.mu.Unlock()

	if err := s.pool.TrySubmit(sess.run); err != nil {
		s.mu.Lock()
		delete(s.sessions, sess.seq)
		s.m.tracked.Set(int64(len(s.sessions)))
		s.mu.Unlock()
		s.inflight.Done()
		s.m.rejected.With("queue_full").Inc()
		if s.cfg.Chaos != nil {
			s.persistServiceSeq(s.currentSeq())
		}
		return nil, ErrQueueFull
	}
	s.m.queueDepth.Set(int64(s.pool.Depth()))
	return sess, nil
}

// pickDevice resolves a pinned device or rotates round-robin — over the
// shard's owned set when registered with a gateway, else the whole fleet.
func (s *Service) pickDevice(pinned int) *devicePair {
	if pinned >= 0 {
		return s.devices[pinned]
	}
	if owned := s.shardOwnedList(); len(owned) > 0 {
		return s.devices[owned[s.nextDev.Add(1)%uint64(len(owned))]]
	}
	return s.devices[s.nextDev.Add(1)%uint64(len(s.devices))]
}

// sessionID formats seq as fmt.Sprintf("s-%08d", seq) does, into one
// new string.
func sessionID(seq uint64) string {
	var b [22]byte
	return string(appendSessionID(b[:0], seq))
}

// appendSessionID appends sessionID(seq) to dst.
func appendSessionID(dst []byte, seq uint64) []byte {
	var digits [20]byte
	num := strconv.AppendUint(digits[:0], seq, 10)
	dst = append(dst, "s-"...)
	for i := len(num); i < 8; i++ {
		dst = append(dst, '0')
	}
	return append(dst, num...)
}

// parseSessionID returns the sequence sessionID formats as id, if any.
func parseSessionID(id string) (uint64, bool) {
	digits, ok := strings.CutPrefix(id, "s-")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	var b [22]byte
	return seq, string(appendSessionID(b[:0], seq)) == id
}

// run executes one admitted session on a pool worker, under a
// sessionCtx the workers share through s.ctxs.
func (sess *Session) run() {
	s := sess.svc
	defer s.inflight.Done()
	s.m.queueDepth.Set(int64(s.pool.Depth()))
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	sess.mu.Lock()
	sess.state = StateRunning
	sess.mu.Unlock()

	sc := s.scenarios[sess.Scenario]
	sc.Faults = sess.faults
	ctx := s.ctxs.Get().(*sessionCtx)
	ctx.reset(time.Now().Add(sess.timeout))
	ans, err := s.unlock(ctx, s.devices[sess.Device], sc)
	s.ctxs.Put(ctx)

	// The finish time is read under s.mu, so the finished sessions link
	// up in finish order.
	s.mu.Lock()
	now := s.clock.Now().Sub(s.started)
	if s.lastFinished == nil {
		s.firstFinished = sess
	} else {
		s.lastFinished.nextFinished = sess
	}
	s.lastFinished = sess
	sess.mu.Lock()
	sess.finished = now
	s.mu.Unlock()
	sess.answer = ans
	sess.err = err
	if err != nil {
		sess.state = StateFailed
	} else {
		sess.state = StateDone
	}
	wall := now - sess.submitted
	sess.mu.Unlock()
	// Metrics first, then done: a waiter or a /metrics scrape that follows
	// the response must already see this session counted.
	s.recordSession(ans, err, wall)
	sess.release()
}

// recordSession publishes one finished session's metrics.
func (s *Service) recordSession(res Answer, err error, wall time.Duration) {
	s.m.wallSeconds.Observe(wall.Seconds())
	s.observeWall(wall)
	if err != nil {
		s.m.sessions.With("error").Inc()
		return
	}
	s.m.sessions.With(res.Outcome.String()).Inc()
	if res.Attempts > 1 {
		s.m.retries.Add(uint64(res.Attempts - 1))
	}
	if res.Unlocked && res.Degradation >= core.DegradeRobustMode {
		s.m.degraded.Inc()
	}
	if res.Outcome == core.OutcomeFallbackPIN {
		s.m.fallback.Inc()
		s.m.manualUnlocks.Inc()
	}
	s.m.unlockDelay.Observe(res.Delay.Seconds())
	if res.Decode > 0 {
		s.m.decodeSeconds.Observe(res.Decode.Seconds())
	}
	if res.BER >= 0 {
		s.m.ber.Observe(res.BER)
	}
	if res.EbN0dB != 0 {
		s.m.ebn0.Observe(res.EbN0dB)
	}
}

// observeWall folds one finished session's wall time into the EWMA the
// Retry-After estimate reads. alpha 0.2 ≈ averaging the last ~10
// sessions, quick enough to track load shifts, smooth enough to ignore
// one slow ladder.
func (s *Service) observeWall(wall time.Duration) {
	const alpha = 0.2
	for {
		old := s.wallEWMA.Load()
		prev := math.Float64frombits(old)
		next := float64(wall)
		if old != 0 {
			next = alpha*float64(wall) + (1-alpha)*prev
		}
		if s.wallEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfter estimates, in whole seconds, when a queue slot should free
// up: the queued backlog divided by the worker pool's drain rate at the
// observed mean session wall time, clamped to [1s, 30s]. Before any
// session has finished it answers the historical 1 second.
func (s *Service) RetryAfter() int {
	mean := math.Float64frombits(s.wallEWMA.Load())
	if mean <= 0 {
		return 1
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	backlog := s.pool.Depth() + 1 // the slot the rejected request needs
	secs := int(math.Ceil(float64(backlog) * mean / float64(workers) / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// Get looks a session up by ID.
func (s *Service) Get(id string) (*Session, bool) {
	seq, ok := parseSessionID(id)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[seq]
	return sess, ok
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for every in-flight session (queued or
// running) to finish, or for ctx to end. Idempotent; finished sessions
// stay queryable until Shutdown.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// s.store is written by the recovery goroutine; the ready channel is
	// the happens-before edge that makes reading it here safe.
	select {
	case <-s.ready:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// Every session committed its own records; sealing the active WAL
	// segment writes an fsynced checkpoint footer, so the next startup
	// fast-forwards from the checkpoint instead of replaying the whole
	// segment — at a fraction of a full compaction's shutdown cost (a
	// footer append + fsync, not a rewrite of the entire state).
	if s.store != nil {
		if err := s.store.Seal(); err != nil {
			return fmt.Errorf("service: drain seal: %w", err)
		}
	}
	return nil
}

// Shutdown drains, then stops the worker pool and the garbage collector.
// The service cannot be restarted afterwards.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.Drain(ctx)
	// Stop shipping before the store closes: the shipper's waiters are
	// released and its goroutine exits instead of spinning on a dead tail.
	s.replClose()
	s.unlockStreams.Close()
	s.pool.Close()
	s.mu.Lock()
	stopped := s.gcStop
	s.gcStop = nil
	s.mu.Unlock()
	if stopped != nil {
		close(stopped)
		<-s.gcDone
	}
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// gcLoop drops finished sessions SessionTTL after they complete.
func (s *Service) gcLoop() {
	defer close(s.gcDone)
	ticker := time.NewTicker(s.cfg.GCInterval)
	defer ticker.Stop()
	s.mu.Lock()
	stop := s.gcStop
	s.mu.Unlock()
	if stop == nil {
		return
	}
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.gcOnce(s.clock.Now())
		}
	}
}

// gcOnce drops the sessions whose finish time is older than the TTL. They
// lead the finish-ordered list, so the sweep visits none it keeps.
func (s *Service) gcOnce(now time.Time) {
	cutoff := now.Sub(s.started) - s.cfg.SessionTTL
	s.mu.Lock()
	var dropped uint64
	for sess := s.firstFinished; sess != nil && sess.finished < cutoff; sess = s.firstFinished {
		delete(s.sessions, sess.seq)
		dropped++
		// Unlinked, a dropped session a client still holds keeps none of
		// the later ones alive.
		s.firstFinished, sess.nextFinished = sess.nextFinished, nil
	}
	if s.firstFinished == nil {
		s.lastFinished = nil
	}
	s.m.tracked.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	if dropped > 0 {
		s.m.gced.Add(dropped)
	}
}

// Health is the /healthz snapshot.
type Health struct {
	Status          string   `json:"status"` // "ok" or "draining"
	Devices         int      `json:"devices"`
	Workers         int      `json:"workers"`
	QueueDepth      int      `json:"queue_depth"`
	QueueBound      int      `json:"queue_bound"`
	Inflight        int64    `json:"inflight"`
	TrackedSessions int      `json:"tracked_sessions"`
	UptimeSeconds   float64  `json:"uptime_seconds"`
	Scenarios       []string `json:"scenarios"`
}

// Health reports liveness and capacity.
func (s *Service) Health() Health {
	s.mu.Lock()
	draining := s.draining
	tracked := len(s.sessions)
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	return Health{
		Status:          status,
		Devices:         len(s.devices),
		Workers:         s.cfg.Workers,
		QueueDepth:      s.pool.Depth(),
		QueueBound:      s.cfg.QueueDepth,
		Inflight:        s.m.inflight.Value(),
		TrackedSessions: tracked,
		UptimeSeconds:   s.clock.Now().Sub(s.started).Seconds(),
		Scenarios:       s.Scenarios(),
	}
}
