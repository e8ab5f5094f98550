// Command benchcluster measures and gates the sharded cluster's two
// promises: near-linear session throughput as shards are added, and a
// live handoff that never regresses a HOTP counter, never accepts a
// replay, and never drops a request without a retryable answer.
//
// Scaling: the session pipeline is airtime-bound, not CPU-bound — an
// acoustic unlock occupies the phone↔watch channel for its protocol
// timeline (~1.4 s in the paper's traces), during which the device can
// serve nobody else. benchcluster models that with -pace (each session
// holds its device and worker for pace × timeline), so a shard's
// capacity is its worker count and a K-shard cluster should deliver
// ~K× the sessions/sec of one shard. Phases run 1, 2, and 4 in-process
// shards behind a real gateway over loopback HTTP, closed-loop, and the
// -check gate requires ≥1.8× at 2 shards and ≥3.2× at 4.
//
// Handoff drill: a 2-shard durable cluster takes live traffic while a
// third shard joins via POST /cluster/v1/shards (snapshot shipping +
// WAL tail replay). The drill fails if the safety oracle
// (internal/invariant) finds, over the max-across-shards durable state,
// a lost device, a changed key or a lower HOTP counter (a regression),
// or a device that unlocked more times than its verifier counter
// advanced (an accepted replay), or if any client
// request ended without either a success or a retryable 429/503 with
// Retry-After (a drop).
//
// Usage:
//
//	benchcluster [-duration 8s] [-pace 0.3] [-out BENCH_cluster.json] [-check]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/invariant"
	"wearlock/internal/service"
	"wearlock/internal/store"
)

// benchConfig is the recorded bench parameterization.
type benchConfig struct {
	Devices    int     `json:"devices"`
	Workers    int     `json:"workers_per_shard"`
	Queue      int     `json:"queue_per_shard"`
	Pace       float64 `json:"pace"`
	DurationS  float64 `json:"phase_seconds"`
	Seed       int64   `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

// phaseResult is one scaling phase's outcome.
type phaseResult struct {
	Shards         int     `json:"shards"`
	Sessions       int     `json:"sessions"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Speedup        float64 `json:"speedup"`
	Retried429     int64   `json:"retried_429"`
}

// drillResult is the handoff drill's outcome and invariant counters.
type drillResult struct {
	DevicesMoved       int     `json:"devices_moved"`
	TailRecords        int     `json:"tail_records"`
	HandoffSeconds     float64 `json:"handoff_seconds"`
	Requests           int64   `json:"requests"`
	Unlocked           int64   `json:"unlocked"`
	Retried429         int64   `json:"retried_429"`
	Retried503         int64   `json:"retried_503"`
	FencedRetried      int64   `json:"fenced_retried"`
	Dropped            int64   `json:"dropped"`
	CounterRegressions int     `json:"counter_regressions"`
	AcceptedReplays    int     `json:"accepted_replays"`
}

// gates records the pass/fail thresholds alongside the measurements.
type gates struct {
	Speedup2Min float64  `json:"speedup_2_min"`
	Speedup4Min float64  `json:"speedup_4_min"`
	Pass        bool     `json:"pass"`
	Failures    []string `json:"failures,omitempty"`
}

type report struct {
	Config benchConfig   `json:"config"`
	Phases []phaseResult `json:"phases"`
	Drill  drillResult   `json:"handoff_drill"`
	Gates  gates         `json:"gates"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		duration = flag.Duration("duration", 8*time.Second, "per-phase measurement window")
		paceF    = flag.Float64("pace", 0.3, "airtime pacing factor (session holds device for pace × timeline)")
		seed     = flag.Int64("seed", 42, "shared fleet seed")
		out      = flag.String("out", "", "write the report JSON to this path")
		check    = flag.Bool("check", false, "exit nonzero if a scaling or handoff gate fails")
	)
	flag.Parse()

	cfg := benchConfig{
		Devices:    64,
		Workers:    2,
		Queue:      16,
		Pace:       *paceF,
		DurationS:  duration.Seconds(),
		Seed:       *seed,
		GOMAXPROCS: service.DefaultConfig().Workers, // 0 = GOMAXPROCS marker; replaced below
	}
	cfg.GOMAXPROCS = gomaxprocs()

	rep := report{Config: cfg}

	// Scaling phases.
	var base float64
	for _, k := range []int{1, 2, 4} {
		pr, err := runPhase(k, cfg, *duration)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcluster: phase %d shards: %v\n", k, err)
			return 1
		}
		if k == 1 {
			base = pr.SessionsPerSec
		}
		if base > 0 {
			pr.Speedup = pr.SessionsPerSec / base
		}
		rep.Phases = append(rep.Phases, pr)
		fmt.Printf("%d shard(s): %d sessions in %.1fs → %.2f/s (%.2fx)\n",
			k, pr.Sessions, duration.Seconds(), pr.SessionsPerSec, pr.Speedup)
	}

	// Handoff drill.
	dr, err := runDrill(cfg, 1500*time.Millisecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcluster: handoff drill: %v\n", err)
		return 1
	}
	rep.Drill = dr
	fmt.Printf("handoff: %d devices moved (%d tail records) in %.2fs under %d live requests "+
		"(%d unlocked, %d deferred-503, %d fenced-retried, %d dropped, %d counter regressions, %d accepted replays)\n",
		dr.DevicesMoved, dr.TailRecords, dr.HandoffSeconds, dr.Requests,
		dr.Unlocked, dr.Retried503, dr.FencedRetried, dr.Dropped, dr.CounterRegressions, dr.AcceptedReplays)

	// Gates.
	g := gates{Speedup2Min: 1.8, Speedup4Min: 3.2, Pass: true}
	fail := func(format string, a ...any) {
		g.Pass = false
		g.Failures = append(g.Failures, fmt.Sprintf(format, a...))
	}
	if s := rep.Phases[1].Speedup; s < g.Speedup2Min {
		fail("2-shard speedup %.2fx < %.2fx", s, g.Speedup2Min)
	}
	if s := rep.Phases[2].Speedup; s < g.Speedup4Min {
		fail("4-shard speedup %.2fx < %.2fx", s, g.Speedup4Min)
	}
	if dr.CounterRegressions > 0 {
		fail("%d HOTP counter regressions across handoff", dr.CounterRegressions)
	}
	if dr.AcceptedReplays > 0 {
		fail("%d devices unlocked more times than their counters advanced", dr.AcceptedReplays)
	}
	if dr.Dropped > 0 {
		fail("%d requests dropped without a retryable answer", dr.Dropped)
	}
	if dr.DevicesMoved == 0 {
		fail("handoff moved no devices — the drill exercised nothing")
	}
	rep.Gates = g

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcluster: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchcluster: %v\n", err)
			return 1
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if !g.Pass {
		for _, f := range g.Failures {
			fmt.Fprintf(os.Stderr, "benchcluster: GATE FAIL: %s\n", f)
		}
		if *check {
			return 1
		}
	} else {
		fmt.Println("all gates pass")
	}
	return 0
}

// testCluster is one booted in-process cluster: shard services behind
// real loopback HTTP servers, fronted by a gateway.
type testCluster struct {
	base     string
	gw       *cluster.Gateway
	services []*service.Service
	cleanup  []func()
}

func (tc *testCluster) close() {
	for i := len(tc.cleanup) - 1; i >= 0; i-- {
		tc.cleanup[i]()
	}
}

// shardConfig builds one shard's service config off the shared bench
// parameters. Every shard sees the full fleet with the same seed, so
// all shards hold identical initial pairings and any of them can adopt
// any device range.
func shardConfig(cfg benchConfig, id string, stateDir string) service.Config {
	sc := service.DefaultConfig()
	sc.Devices = cfg.Devices
	sc.Workers = cfg.Workers
	sc.QueueDepth = cfg.Queue
	sc.Seed = cfg.Seed
	sc.PaceAirtime = cfg.Pace
	sc.ShardID = id
	if stateDir != "" {
		sc.StateDir = filepath.Join(stateDir, id)
		sc.NoFsync = true // bench: exercise the commit path, skip disk stalls
	}
	return sc
}

// bootShard starts one shard service and serves it over loopback HTTP.
func bootShard(tc *testCluster, sc service.Config) (cluster.ShardConfig, error) {
	svc, err := service.New(sc)
	if err != nil {
		return cluster.ShardConfig{}, err
	}
	if sc.StateDir != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := svc.WaitReady(ctx)
		cancel()
		if err != nil {
			return cluster.ShardConfig{}, fmt.Errorf("shard %s recovery: %w", sc.ShardID, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cluster.ShardConfig{}, err
	}
	server := &http.Server{Handler: svc.Handler()}
	go func() { _ = server.Serve(ln) }()
	tc.services = append(tc.services, svc)
	tc.cleanup = append(tc.cleanup, func() { _ = server.Close() })
	return cluster.ShardConfig{Name: sc.ShardID, BaseURL: "http://" + ln.Addr().String()}, nil
}

// bootCluster brings up n shards and a registered gateway.
func bootCluster(n int, cfg benchConfig, stateDir string) (*testCluster, error) {
	tc := &testCluster{}
	var shardCfgs []cluster.ShardConfig
	for i := 0; i < n; i++ {
		sc, err := bootShard(tc, shardConfig(cfg, fmt.Sprintf("s%d", i), stateDir))
		if err != nil {
			tc.close()
			return nil, err
		}
		shardCfgs = append(shardCfgs, sc)
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Shards: shardCfgs, TotalDevices: cfg.Devices})
	if err != nil {
		tc.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = gw.Register(ctx)
	cancel()
	if err != nil {
		tc.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.close()
		return nil, err
	}
	server := &http.Server{Handler: gw.Handler()}
	go func() { _ = server.Serve(ln) }()
	tc.cleanup = append(tc.cleanup, func() { _ = server.Close() })
	tc.gw = gw
	tc.base = "http://" + ln.Addr().String()
	return tc, nil
}

// sessionView is the slice of the daemon's session snapshot the bench
// needs: which device ran and whether it unlocked.
type sessionView struct {
	Device   int    `json:"device"`
	State    string `json:"state"`
	Unlocked bool   `json:"unlocked"`
	Error    string `json:"error"`
}

// unlockOnce issues one synchronous unlock and classifies the answer.
func unlockOnce(client *http.Client, base string) (view sessionView, status int, retryAfter bool, err error) {
	resp, err := client.Post(base+"/v1/unlock", "application/json",
		bytes.NewReader([]byte(`{"scenario":"default"}`)))
	if err != nil {
		return sessionView{}, 0, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return sessionView{}, 0, false, err
	}
	_ = json.Unmarshal(body, &view)
	return view, resp.StatusCode, resp.Header.Get("Retry-After") != "", nil
}

// driveLoad runs a closed loop of clients against base until stop is
// closed, retrying 429/503/fenced answers and accounting every request.
type loadCounters struct {
	requests, unlocked     atomic.Int64
	retried429, retried503 atomic.Int64
	fencedRetried, dropped atomic.Int64
	mu                     sync.Mutex
	unlockedByDevice       map[int]int
	completed              atomic.Int64
}

func driveLoad(base string, clients int, stop <-chan struct{}) (*loadCounters, *sync.WaitGroup) {
	lc := &loadCounters{unlockedByDevice: map[int]int{}}
	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lc.requests.Add(1)
				for {
					view, status, ra, err := unlockOnce(client, base)
					if err != nil {
						lc.dropped.Add(1)
						break
					}
					if status == http.StatusTooManyRequests && ra {
						lc.retried429.Add(1)
						time.Sleep(50 * time.Millisecond)
						continue
					}
					if status == http.StatusServiceUnavailable && ra {
						lc.retried503.Add(1)
						time.Sleep(50 * time.Millisecond)
						continue
					}
					if status == http.StatusOK && view.State == "failed" && view.Error != "" {
						// A session admitted before a fence but scheduled
						// after it fails without touching the device; it is
						// retryable, not dropped.
						lc.fencedRetried.Add(1)
						continue
					}
					if status != http.StatusOK && status != http.StatusAccepted {
						lc.dropped.Add(1)
						break
					}
					lc.completed.Add(1)
					if view.Unlocked {
						lc.unlocked.Add(1)
						lc.mu.Lock()
						lc.unlockedByDevice[view.Device]++
						lc.mu.Unlock()
					}
					break
				}
			}
		}()
	}
	return lc, &wg
}

// runPhase measures one scaling phase: closed-loop sessions/sec against
// a k-shard ephemeral cluster, with 4×workers clients per shard: the
// ring never splits the device space perfectly evenly, so the closed
// loop needs enough in-flight requests that the lighter shards stay
// saturated while clients queue at the heavier ones.
func runPhase(k int, cfg benchConfig, duration time.Duration) (phaseResult, error) {
	tc, err := bootCluster(k, cfg, "")
	if err != nil {
		return phaseResult{}, err
	}
	defer tc.close()

	stop := make(chan struct{})
	lc, wg := driveLoad(tc.base, 4*cfg.Workers*k, stop)
	start := time.Now()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	done := lc.completed.Load()
	return phaseResult{
		Shards:         k,
		Sessions:       int(done),
		SessionsPerSec: float64(done) / elapsed,
		Retried429:     lc.retried429.Load(),
	}, nil
}

// durableState merges every shard's durable state into the
// cluster-wide view the safety oracle judges.
func (tc *testCluster) durableState() store.State {
	var states []store.State
	for _, svc := range tc.services {
		if st, ok := svc.StoreState(); ok {
			states = append(states, st)
		}
	}
	return invariant.Merge(states...)
}

// runDrill performs the live-handoff invariant drill, driving load for
// settle before the join and again after it. It fails if the join
// leaves any of the three shards owning no devices.
func runDrill(cfg benchConfig, settle time.Duration) (drillResult, error) {
	stateDir, err := os.MkdirTemp("", "benchcluster-*")
	if err != nil {
		return drillResult{}, err
	}
	defer os.RemoveAll(stateDir)

	tc, err := bootCluster(2, cfg, stateDir)
	if err != nil {
		return drillResult{}, err
	}
	defer tc.close()

	before := tc.durableState()

	stop := make(chan struct{})
	lc, wg := driveLoad(tc.base, 8, stop)
	time.Sleep(settle)

	// Join a third shard mid-load through the gateway's admin API — the
	// same snapshot-shipping path an operator would use.
	newShard, err := bootShard(tc, shardConfig(cfg, "s2", stateDir))
	if err != nil {
		close(stop)
		wg.Wait()
		return drillResult{}, err
	}
	joinBody, _ := json.Marshal(map[string]string{"name": newShard.Name, "base_url": newShard.BaseURL})
	client := &http.Client{Timeout: 120 * time.Second}
	hStart := time.Now()
	resp, err := client.Post(tc.base+"/cluster/v1/shards", "application/json", bytes.NewReader(joinBody))
	if err != nil {
		close(stop)
		wg.Wait()
		return drillResult{}, err
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		close(stop)
		wg.Wait()
		return drillResult{}, fmt.Errorf("join answered %d: %s", resp.StatusCode, raw)
	}
	var joined struct {
		Handoffs []cluster.HandoffReport `json:"handoffs"`
	}
	if err := json.Unmarshal(raw, &joined); err != nil {
		close(stop)
		wg.Wait()
		return drillResult{}, fmt.Errorf("join response: %w", err)
	}
	handoffSecs := time.Since(hStart).Seconds()

	time.Sleep(settle)
	close(stop)
	wg.Wait()

	// The joined shard serves its range: the topology lists three shards,
	// each owning devices.
	var topology struct {
		Shards []struct {
			Name  string `json:"name"`
			Owned int    `json:"owned"`
		} `json:"shards"`
	}
	if resp, err = client.Get(tc.base + "/cluster/v1/topology"); err != nil {
		return drillResult{}, err
	}
	err = json.NewDecoder(resp.Body).Decode(&topology)
	resp.Body.Close()
	if err != nil {
		return drillResult{}, fmt.Errorf("topology: %w", err)
	}
	if len(topology.Shards) != 3 {
		return drillResult{}, fmt.Errorf("topology has %d shards after join, want 3", len(topology.Shards))
	}
	for _, sh := range topology.Shards {
		if sh.Owned == 0 {
			return drillResult{}, fmt.Errorf("shard %s owns no devices after rebalance", sh.Name)
		}
	}

	vs := invariant.Check(invariant.Event{Before: before, After: tc.durableState(), Accepted: lc.unlockedByDevice})
	if err := vs.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcluster: handoff drill: %v\n", err)
	}
	dr := drillResult{
		HandoffSeconds: handoffSecs,
		Requests:       lc.requests.Load(),
		Unlocked:       lc.unlocked.Load(),
		Retried429:     lc.retried429.Load(),
		Retried503:     lc.retried503.Load(),
		FencedRetried:  lc.fencedRetried.Load(),
		Dropped:        lc.dropped.Load(),
		// A lost device or a changed key leaves no counter to be
		// monotone, so both count as regressions.
		CounterRegressions: vs.Count(invariant.LostDevice, invariant.KeyChange, invariant.CounterRegression),
		AcceptedReplays:    vs.Count(invariant.AcceptedReplay),
	}
	for _, h := range joined.Handoffs {
		dr.DevicesMoved += len(h.Devices)
		dr.TailRecords += h.TailRecords
	}
	return dr, nil
}

func gomaxprocs() int {
	return runtime.GOMAXPROCS(0)
}
