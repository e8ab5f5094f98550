// Command benchfailover measures and gates the warm-standby failover
// promise: a primary can die mid-load and the cluster keeps every
// acknowledged session, never regresses a HOTP counter, never accepts
// a replay, and restores service in a small fraction of the time a
// cold restart of the same store would take.
//
// Kill cycles: -cycles seeded rounds each boot a primary + attached
// warm standby behind a real gateway over loopback HTTP, acknowledge
// unlock traffic through the gateway (synchronous replication: the ack
// implies the follower's disk), kill the primary process state and its
// port, and drive the gateway's heartbeat loop on a manual clock until
// it fences the epoch and promotes the standby. After every promotion
// the safety oracle (internal/invariant) checks that each acked device
// survived with the same pairing key and counters no lower, and that no
// device unlocked more times than its verifier counter advanced.
//
// Downtime ratio: one heavy round pads the primary's WAL with enough
// records that startup replay is expensive, measures that cold-restart
// replay window directly (boot wall time on the same store), then
// measures client-observed unavailability across a promotion under
// continuous load — the gap between the kill and the first subsequent
// acknowledged unlock. The -check gate requires the promotion gap to be
// under 10% of the cold-restart window: failover must beat restart by
// an order of magnitude, or the standby is not paying for itself.
//
// Usage:
//
//	benchfailover [-cycles 25] [-padding 500000] [-out BENCH_failover.json] [-check]
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
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/invariant"
	"wearlock/internal/service"
	"wearlock/internal/store"
	"wearlock/internal/vtime"
)

// benchConfig is the recorded drill parameterization.
type benchConfig struct {
	Cycles     int   `json:"cycles"`
	Devices    int   `json:"devices"`
	Workers    int   `json:"workers"`
	Seed       int64 `json:"seed"`
	Padding    int   `json:"padding_records"`
	GOMAXPROCS int   `json:"gomaxprocs"`
}

// cycleResult is one kill cycle's outcome and invariant counters.
type cycleResult struct {
	Cycle              int     `json:"cycle"`
	AckedBeforeKill    int     `json:"acked_before_kill"`
	PromoteMS          float64 `json:"promote_ms"`
	LostDevices        int     `json:"lost_devices"`
	KeyChanges         int     `json:"key_changes"`
	CounterRegressions int     `json:"counter_regressions"`
	AcceptedReplays    int     `json:"accepted_replays"`
	PostPromoteFailed  int     `json:"post_promote_failed"`
}

// downtimeResult compares promotion unavailability against the
// cold-restart replay window of the same padded store.
type downtimeResult struct {
	PaddingRecords     int     `json:"padding_records"`
	ColdReplayMS       float64 `json:"cold_replay_ms"`
	UnavailabilityMS   float64 `json:"promotion_unavailability_ms"`
	Ratio              float64 `json:"unavailability_over_replay"`
	AckedBeforeKill    int     `json:"acked_before_kill"`
	LostDevices        int     `json:"lost_devices"`
	CounterRegressions int     `json:"counter_regressions"`
}

// gates records the pass/fail thresholds alongside the measurements.
type gates struct {
	RatioMax float64  `json:"ratio_max"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

type report struct {
	Config   benchConfig    `json:"config"`
	Cycles   []cycleResult  `json:"kill_cycles"`
	Downtime downtimeResult `json:"downtime"`
	Gates    gates          `json:"gates"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cycles  = flag.Int("cycles", 25, "seeded kill/failover cycles")
		padding = flag.Int("padding", 500_000, "WAL padding records for the downtime cycle")
		seed    = flag.Int64("seed", 42, "base fleet seed (each cycle derives its own)")
		out     = flag.String("out", "", "write the report JSON to this path")
		check   = flag.Bool("check", false, "exit nonzero if an invariant or the downtime gate fails")
	)
	flag.Parse()

	cfg := benchConfig{
		Cycles:     *cycles,
		Devices:    8,
		Workers:    2,
		Seed:       *seed,
		Padding:    *padding,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	rep := report{Config: cfg}

	for i := 0; i < cfg.Cycles; i++ {
		cr, err := runCycle(i, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: cycle %d: %v\n", i, err)
			return 1
		}
		rep.Cycles = append(rep.Cycles, cr)
	}
	var acked, lost, keys, regress, replays, postFail int
	for _, cr := range rep.Cycles {
		acked += cr.AckedBeforeKill
		lost += cr.LostDevices
		keys += cr.KeyChanges
		regress += cr.CounterRegressions
		replays += cr.AcceptedReplays
		postFail += cr.PostPromoteFailed
	}
	fmt.Printf("%d kill cycles: %d acked sessions, %d lost devices, %d key changes, "+
		"%d counter regressions, %d accepted replays, %d post-promote failures\n",
		len(rep.Cycles), acked, lost, keys, regress, replays, postFail)

	dt, err := runDowntime(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfailover: downtime cycle: %v\n", err)
		return 1
	}
	rep.Downtime = dt
	fmt.Printf("downtime: cold replay of %d padded records %.0f ms; promotion unavailability %.1f ms (%.1f%% of replay)\n",
		dt.PaddingRecords, dt.ColdReplayMS, dt.UnavailabilityMS, 100*dt.Ratio)

	g := gates{RatioMax: 0.10, Pass: true}
	fail := func(format string, a ...any) {
		g.Pass = false
		g.Failures = append(g.Failures, fmt.Sprintf(format, a...))
	}
	if acked == 0 {
		fail("no sessions acknowledged before any kill — the drill exercised nothing")
	}
	if lost > 0 {
		fail("%d acked devices lost across failovers", lost)
	}
	if keys > 0 {
		fail("%d pairing keys changed across failovers", keys)
	}
	if regress > 0 {
		fail("%d HOTP counter regressions across failovers", regress)
	}
	if replays > 0 {
		fail("%d devices unlocked more times than their counters advanced", replays)
	}
	if postFail > 0 {
		fail("%d post-promotion unlocks failed on the promoted standby", postFail)
	}
	if dt.LostDevices > 0 || dt.CounterRegressions > 0 {
		fail("downtime cycle lost %d devices / regressed %d counters", dt.LostDevices, dt.CounterRegressions)
	}
	if dt.Ratio >= g.RatioMax {
		fail("promotion unavailability %.1f ms is %.1f%% of the %.0f ms cold-replay window (gate < %.0f%%)",
			dt.UnavailabilityMS, 100*dt.Ratio, dt.ColdReplayMS, 100*g.RatioMax)
	}
	rep.Gates = g

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchfailover: %v\n", err)
			return 1
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if !g.Pass {
		for _, f := range g.Failures {
			fmt.Fprintf(os.Stderr, "benchfailover: GATE FAIL: %s\n", f)
		}
		if *check {
			return 1
		}
	} else {
		fmt.Println("all gates pass")
	}
	return 0
}

// pair is one booted primary + attached warm standby behind a
// registered gateway, all over loopback HTTP on a manual clock.
type pair struct {
	primary, follower *service.Service
	gw                *cluster.Gateway
	clock             *vtime.ManualClock
	base              string // gateway URL
	followerURL       string
	primarySrv        *http.Server
	cleanup           []func()
}

func (p *pair) close() {
	for i := len(p.cleanup) - 1; i >= 0; i-- {
		p.cleanup[i]()
	}
}

// serve exposes a handler on a fresh loopback listener.
func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, nil
}

// shardCfg builds one daemon's config: full fleet, shared seed, durable
// store without fsync (the drill exercises replication and replay, not
// disk latency).
func shardCfg(cfg benchConfig, seed int64, stateDir string) service.Config {
	sc := service.DefaultConfig()
	sc.Devices = cfg.Devices
	sc.Workers = cfg.Workers
	sc.QueueDepth = 16
	sc.Seed = seed
	sc.ShardID = "s0"
	sc.StateDir = stateDir
	sc.NoFsync = true
	return sc
}

// bootPair stands the pair up: primary recovered and serving, follower
// attached and bootstrapped, gateway registered with the follower armed
// as s0's standby and a 2-miss failover threshold.
func bootPair(primaryCfg, followerCfg service.Config, devices int) (*pair, error) {
	p := &pair{}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()

	boot := func(sc service.Config) (*service.Service, string, *http.Server, error) {
		svc, err := service.New(sc)
		if err != nil {
			return nil, "", nil, err
		}
		p.cleanup = append(p.cleanup, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = svc.Shutdown(ctx)
			cancel()
		})
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		err = svc.WaitReady(ctx)
		cancel()
		if err != nil {
			return nil, "", nil, fmt.Errorf("WaitReady: %w", err)
		}
		url, srv, err := serve(svc.Handler())
		if err != nil {
			return nil, "", nil, err
		}
		p.cleanup = append(p.cleanup, func() { _ = srv.Close() })
		return svc, url, srv, nil
	}

	var primaryURL string
	var err error
	p.primary, primaryURL, p.primarySrv, err = boot(primaryCfg)
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	p.follower, p.followerURL, _, err = boot(followerCfg)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = p.follower.FollowPrimary(ctx, primaryURL, p.followerURL)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("FollowPrimary: %w", err)
	}
	p.clock = vtime.NewManualClock(time.Unix(1_700_000_000, 0))
	p.gw, err = cluster.NewGateway(cluster.GatewayConfig{
		Shards:          []cluster.ShardConfig{{Name: "s0", BaseURL: primaryURL}},
		TotalDevices:    devices,
		HeartbeatMisses: 2,
		Standbys:        map[string]string{"s0": p.followerURL},
		Clock:           p.clock,
		Client:          &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = p.gw.Register(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("Register: %w", err)
	}
	var gsrv *http.Server
	p.base, gsrv, err = serve(p.gw.Handler())
	if err != nil {
		return nil, err
	}
	p.cleanup = append(p.cleanup, func() { _ = gsrv.Close() })
	ok = true
	return p, nil
}

// unlockDevice runs one synchronous unlock for a pinned device through
// the gateway and reports whether it was acknowledged with an unlock.
func unlockDevice(client *http.Client, base string, dev int) (unlocked bool, status int, err error) {
	body, _ := json.Marshal(map[string]any{"device": dev})
	resp, err := client.Post(base+"/v1/unlock", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, resp.StatusCode, err
	}
	var view struct {
		Unlocked bool `json:"unlocked"`
	}
	_ = json.Unmarshal(raw, &view)
	return resp.StatusCode == http.StatusOK && view.Unlocked, resp.StatusCode, nil
}

// unlockUntilAcked retries a device until one session is acknowledged
// with an unlock; non-unlocking completions and transient 503s are
// retried, anything else after the attempt budget is an error.
func unlockUntilAcked(client *http.Client, base string, dev int) error {
	var lastStatus int
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		ok, status, err := unlockDevice(client, base, dev)
		if err == nil && ok {
			return nil
		}
		lastStatus, lastErr = status, err
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no acked unlock in 20 attempts (last status %d, err %v)", lastStatus, lastErr)
}

// runCycle is one seeded kill/failover round.
func runCycle(i int, cfg benchConfig) (cycleResult, error) {
	stateDir, err := os.MkdirTemp("", "benchfailover-*")
	if err != nil {
		return cycleResult{}, err
	}
	defer os.RemoveAll(stateDir)

	seed := cfg.Seed + int64(i)*1009
	p, err := bootPair(
		shardCfg(cfg, seed, filepath.Join(stateDir, "primary")),
		func() service.Config {
			sc := shardCfg(cfg, seed, filepath.Join(stateDir, "standby"))
			sc.Follow = true
			return sc
		}(),
		cfg.Devices,
	)
	if err != nil {
		return cycleResult{}, err
	}
	defer p.close()

	cr := cycleResult{Cycle: i}
	client := &http.Client{Timeout: 30 * time.Second}
	initial, _ := p.primary.StoreState()
	acks := map[int]int{}

	// Acked traffic through the gateway. Synchronous replication: each
	// unlocked 200 below means the session is already on the standby's
	// disk. A session can complete without unlocking (the acoustic sim
	// rolls per-session noise), so retry the device until one lands.
	for round := 0; round < 2; round++ {
		for dev := 0; dev < cfg.Devices; dev++ {
			if err := unlockUntilAcked(client, p.base, dev); err != nil {
				return cr, fmt.Errorf("pre-kill device %d: %w", dev, err)
			}
			acks[dev]++
			cr.AckedBeforeKill++
		}
	}
	before, ok := p.primary.StoreState()
	if !ok {
		return cr, fmt.Errorf("primary has no store state")
	}

	// Kill the primary: process memory gone, port gone.
	p.primary.Kill()
	_ = p.primarySrv.Close()
	tKill := time.Now()

	// Two missed beats cross the threshold; the fence + promote +
	// re-point runs inside the second HeartbeatOnce.
	for b := 0; b < 2; b++ {
		p.clock.Advance(time.Second)
		p.gw.HeartbeatOnce(context.Background())
	}
	cr.PromoteMS = float64(time.Since(tKill)) / float64(time.Millisecond)
	if role := p.follower.ReplicaStatus().Role; role != "promoted" {
		return cr, fmt.Errorf("follower role %q after heartbeat loss, want promoted", role)
	}
	if top := p.gw.Topology(); top.Shards[0].BaseURL != p.followerURL {
		return cr, fmt.Errorf("gateway routes s0 to %s, want promoted standby", top.Shards[0].BaseURL)
	}

	after, ok := p.follower.StoreState()
	if !ok {
		return cr, fmt.Errorf("promoted follower has no store state")
	}
	// Survival: every device the primary acked is on the promoted
	// standby, same pairing key, counters no lower.
	vs := invariant.Check(invariant.Event{Before: before, After: after})

	// The same gateway URL serves again, against the promoted standby.
	for dev := 0; dev < cfg.Devices; dev++ {
		if err := unlockUntilAcked(client, p.base, dev); err != nil {
			cr.PostPromoteFailed++
			continue
		}
		acks[dev]++
	}

	// Replay check: a device acknowledged N unlocks, so its verifier
	// counter must have advanced at least N times — counting a token
	// twice would show up as more unlocks than counter movement.
	final, _ := p.follower.StoreState()
	vs = append(vs, invariant.Check(invariant.Event{Before: initial, After: final, Accepted: acks})...)
	if err := vs.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfailover: cycle %d: %v\n", i, err)
	}
	cr.LostDevices = vs.Count(invariant.LostDevice)
	cr.KeyChanges = vs.Count(invariant.KeyChange)
	cr.CounterRegressions = vs.Count(invariant.CounterRegression)
	cr.AcceptedReplays = vs.Count(invariant.AcceptedReplay)
	return cr, nil
}

// padStore writes padding records into a fresh store so that a cold
// restart has a real replay bill to pay.
func padStore(dir string, records int) error {
	st, err := store.Open(store.Options{Dir: dir, NoFsync: true, SegmentBytes: 1 << 30})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	workers := 32
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		n := records / workers
		if w == 0 {
			n += records % workers
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := st.CommitNote("failover-padding"); err != nil {
					errCh <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// runDowntime measures client-observed promotion unavailability against
// the cold-restart replay window of the same padded store.
func runDowntime(cfg benchConfig) (downtimeResult, error) {
	stateDir, err := os.MkdirTemp("", "benchfailover-heavy-*")
	if err != nil {
		return downtimeResult{}, err
	}
	defer os.RemoveAll(stateDir)
	primaryDir := filepath.Join(stateDir, "primary")

	dt := downtimeResult{PaddingRecords: cfg.Padding}
	if err := padStore(primaryDir, cfg.Padding); err != nil {
		return dt, fmt.Errorf("padding: %w", err)
	}

	// Cold-restart window: boot the daemon on the padded store and time
	// recovery. SnapshotEvery is pushed out of reach so the padding
	// stays in the WAL — this primary pays the same replay bill again if
	// it ever cold-restarts, which is exactly the scenario the warm
	// standby exists to beat.
	primaryCfg := shardCfg(cfg, cfg.Seed, primaryDir)
	primaryCfg.SnapshotEvery = 1 << 30
	primaryCfg.WALSegmentBytes = 1 << 30
	followerCfg := shardCfg(cfg, cfg.Seed, filepath.Join(stateDir, "standby"))
	followerCfg.Follow = true

	tBoot := time.Now()
	p, err := bootPairTimed(primaryCfg, followerCfg, cfg.Devices, &dt.ColdReplayMS, tBoot)
	if err != nil {
		return dt, err
	}
	defer p.close()

	// Continuous client load on its own goroutine; the heartbeat loop on
	// another, ticking the manual clock forward at wall speed so failure
	// detection costs real milliseconds, not simulated seconds.
	stop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.clock.Advance(time.Second)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				p.gw.HeartbeatOnce(ctx)
				cancel()
			}
		}
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	acked := 0
	// Warm the path with one acked round per device.
	for dev := 0; dev < cfg.Devices; dev++ {
		if err := unlockUntilAcked(client, p.base, dev); err != nil {
			close(stop)
			hbWG.Wait()
			return dt, fmt.Errorf("warmup device %d: %w", dev, err)
		}
		acked++
	}
	dt.AckedBeforeKill = acked
	before, ok := p.primary.StoreState()
	if !ok {
		close(stop)
		hbWG.Wait()
		return dt, fmt.Errorf("primary has no store state")
	}

	p.primary.Kill()
	_ = p.primarySrv.Close()
	tKill := time.Now()

	// Hammer the gateway until service returns: the first acknowledged
	// unlock after the kill closes the unavailability window.
	dev := 0
	for {
		ok, _, err := unlockDevice(client, p.base, dev%cfg.Devices)
		if err == nil && ok {
			dt.UnavailabilityMS = float64(time.Since(tKill)) / float64(time.Millisecond)
			break
		}
		if time.Since(tKill) > 60*time.Second {
			close(stop)
			hbWG.Wait()
			return dt, fmt.Errorf("no successful unlock within 60s of the kill")
		}
		dev++
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	hbWG.Wait()

	if role := p.follower.ReplicaStatus().Role; role != "promoted" {
		return dt, fmt.Errorf("follower role %q after downtime cycle, want promoted", role)
	}
	after, ok := p.follower.StoreState()
	if !ok {
		return dt, fmt.Errorf("promoted follower has no store state")
	}
	vs := invariant.Check(invariant.Event{Before: before, After: after})
	if err := vs.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfailover: downtime cycle: %v\n", err)
	}
	dt.LostDevices = vs.Count(invariant.LostDevice, invariant.KeyChange)
	dt.CounterRegressions = vs.Count(invariant.CounterRegression)
	if dt.ColdReplayMS > 0 {
		dt.Ratio = dt.UnavailabilityMS / dt.ColdReplayMS
	}
	return dt, nil
}

// bootPairTimed is bootPair, but it also reports how long the primary's
// recovery (service boot to ready) took — the cold-restart window.
func bootPairTimed(primaryCfg, followerCfg service.Config, devices int, replayMS *float64, tBoot time.Time) (*pair, error) {
	// The primary boots first inside bootPair, and WaitReady dominates
	// its wall time on a padded store; measure around the whole primary
	// boot by timing until the pair helper finishes the primary stage.
	// Simpler and just as honest: time a dedicated recovery probe.
	svc, err := service.New(primaryCfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	err = svc.WaitReady(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("padded primary recovery: %w", err)
	}
	*replayMS = float64(time.Since(tBoot)) / float64(time.Millisecond)
	// Release the store cleanly (Seal keeps the WAL; no compaction) so
	// the real primary below replays the very same padded store.
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Minute)
	err = svc.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("probe shutdown: %w", err)
	}
	return bootPair(primaryCfg, followerCfg, devices)
}
