// Command loadgen drives a wearlockd daemon with concurrent unlock
// traffic and prints a latency/outcome summary. It speaks the real HTTP
// API (synchronous POST /v1/unlock), honors 429 backpressure with
// Retry-After, and afterwards scrapes /metrics to cross-check the
// daemon's outcome counters against what the clients observed — the
// consistency bit in the report is the acceptance gate for the service's
// accounting.
//
// With -selfhost it boots an in-process daemon on a loopback port first,
// so a one-command smoke run needs no separate server:
//
//	loadgen -selfhost -n 512 -c 64 -out BENCH_service.json
//
// With -state-dir (selfhost) the daemon runs durable and the report
// grows a store-consistency gate: wearlockd_wal_records_total must
// cover every completed session, wearlockd_store_corruptions_total
// must be zero, and wearlockd_recovery_seconds must be exposed:
//
//	loadgen -selfhost -n 256 -c 16 -state-dir /tmp/wearlockd-state
//
// Against a running daemon:
//
//	loadgen -addr http://localhost:8547 -n 1000 -c 32 -rate 200 \
//	        -mix "default=4,cafe=2,samehand=1,out-of-range=1"
//
// With -virtual the same admission stream runs on the discrete-event
// virtual-time engine instead of a daemon (DESIGN.md §12): no HTTP, no
// wall-clock airtime — the report's unlock_delay percentiles are the
// bit-identical protocol timelines the daemon would have produced,
// available in a fraction of the wall time. -fleets replays the stream
// across N identical device fleets for crowded-room capacity numbers:
//
//	loadgen -virtual -n 512 -fleets 64 -chaos builtin
package main

import (
	"bufio"
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/invariant"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
	"wearlock/internal/sim"
	"wearlock/internal/store"
	"wearlock/internal/vtime"
)

type latencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

type record struct {
	Date           string          `json:"date"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	Requests       int             `json:"requests"`
	Concurrency    int             `json:"concurrency"`
	RatePerSec     float64         `json:"rate_per_sec"` // 0 = closed loop
	Mix            string          `json:"mix"`
	Chaos          string          `json:"chaos,omitempty"`
	Selfhost       bool            `json:"selfhost"`
	Shards         int             `json:"shards,omitempty"`
	WallSeconds    float64         `json:"wall_seconds"`
	Throughput     float64         `json:"sessions_per_sec"`
	Outcomes       map[string]int  `json:"outcomes"`
	Rejected429    int64           `json:"rejected_429"`
	Deferred503    int64           `json:"deferred_503"`
	HTTPErrors     int64           `json:"http_errors"`
	Latency        latencySummary  `json:"latency"`
	UnlockDelay    latencySummary  `json:"unlock_delay"`
	MetricsMatch   bool            `json:"metrics_match_observed"`
	MetricsDetail  string          `json:"metrics_detail,omitempty"`
	DaemonOutcomes map[string]int  `json:"daemon_outcomes"`
	Store          *storeReport    `json:"store,omitempty"`
	Failover       *failoverReport `json:"failover,omitempty"`
	Note           string          `json:"note"`
}

// virtualRecord is the -virtual report: no transport, no daemon — the
// throughput is the engine's logical session rate and unlock_delay is
// the virtual protocol timeline, bit-identical to what a serial daemon
// run would charge (see internal/vtime's equivalence suite).
type virtualRecord struct {
	Date        string         `json:"date"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Virtual     bool           `json:"virtual"`
	Requests    int            `json:"requests"`
	Fleets      int            `json:"fleets"`
	Devices     int            `json:"devices"`
	Mix         string         `json:"mix"`
	Chaos       string         `json:"chaos,omitempty"`
	Sessions    int            `json:"sessions_total"`
	WallSeconds float64        `json:"wall_seconds"`
	Throughput  float64        `json:"sessions_per_sec"`
	VirtualEndS float64        `json:"virtual_end_seconds"`
	MemoHits    uint64         `json:"memo_hits"`
	MemoMisses  uint64         `json:"memo_misses"`
	Outcomes    map[string]int `json:"outcomes"`
	UnlockDelay latencySummary `json:"unlock_delay"`
	Note        string         `json:"note"`
}

// runVirtual replays the admission mix on the discrete-event engine:
// request i becomes admission sequence i+1 round-robined over the
// device fleet, faults derived from (seed, sequence) — the same
// contract wearlockd applies — with the resilience ladder armed
// whenever a fault schedule is, mirroring the daemon.
func runVirtual(mix *service.Mix, scenarios map[string]core.Scenario, n, devices, fleets int, seed int64, mixSpec, chaosSpec, out string) int {
	if devices <= 0 {
		devices = service.DefaultConfig().Devices
	}
	if fleets <= 0 {
		fleets = 1
	}
	cfg := core.DefaultConfig()
	sch, err := catalog.ResolveChaos(chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	if sch != nil {
		cfg.Resilience = core.DefaultResilience()
	}
	picks := make([]vtime.Pick, n)
	for i := range picks {
		name := mix.Pick(uint64(i))
		picks[i] = vtime.Pick{Name: name, Scenario: scenarios[name]}
	}
	w := vtime.FleetWorkload(cfg, seed, fleets, devices, picks, sch)
	start := time.Now()
	rep, err := vtime.Run(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: virtual engine: %v\n", err)
		return 1
	}
	wall := time.Since(start)

	outcomes := map[string]int{}
	var delays sim.Stats
	for _, r := range rep.Results {
		outcomes[r.Outcome.String()]++
		delays.Add(float64(r.Timeline.Total().Nanoseconds()) / 1e6)
	}
	rec := virtualRecord{
		Date:        time.Now().UTC().Format("2006-01-02"),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Virtual:     true,
		Requests:    n,
		Fleets:      fleets,
		Devices:     devices,
		Mix:         mixSpec,
		Chaos:       chaosSpec,
		Sessions:    len(w.Sessions),
		WallSeconds: wall.Seconds(),
		Throughput:  float64(len(w.Sessions)) / wall.Seconds(),
		VirtualEndS: rep.VirtualEnd.Seconds(),
		MemoHits:    rep.MemoHits,
		MemoMisses:  rep.MemoMisses,
		Outcomes:    outcomes,
		UnlockDelay: summarize(&delays),
		Note: "Virtual-time dry run: sessions executed on the discrete-event engine, no daemon or HTTP transport. " +
			"unlock_delay is the virtual protocol timeline (bit-identical to a serial run per internal/vtime's " +
			"equivalence suite); sessions_per_sec counts logical sessions, amortized across replica fleets by " +
			"transition memoization.",
	}

	fmt.Printf("\n%d requests × %d fleets over %d devices  →  %.2fs wall, %.1f sessions/s (virtual end %.1fs)\n",
		rec.Requests, rec.Fleets, rec.Devices, rec.WallSeconds, rec.Throughput, rec.VirtualEndS)
	names := make([]string, 0, len(outcomes))
	for k := range outcomes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %d\n", k, outcomes[k])
	}
	fmt.Printf("  unlock delay p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		rec.UnlockDelay.P50MS, rec.UnlockDelay.P90MS, rec.UnlockDelay.P99MS)
	fmt.Printf("  memo: %d hits / %d misses\n", rec.MemoHits, rec.MemoMisses)

	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	return 0
}

// resolveMix resolves a -mix flag value against the scenario registry.
// It runs before any daemon boots or any request is sent, so an
// unregistered scenario name is a startup error listing every registered
// name — not a mid-run HTTP 400 after traffic already flowed.
func resolveMix(spec string) (*service.Mix, map[string]core.Scenario, error) {
	scenarios := catalog.ServiceScenarios()
	mix, err := service.ParseMix(spec, scenarios)
	if err != nil {
		return nil, nil, err
	}
	return mix, scenarios, nil
}

// storeReport is the durability slice of the consistency gate, present
// only when the run drove a daemon with a -state-dir.
type storeReport struct {
	WALRecords      int     `json:"wal_records_total"`
	Corruptions     int     `json:"store_corruptions_total"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	FsyncDisabled   bool    `json:"fsync_disabled"`
	Commits         int     `json:"commit_count"`
	MeanBatchSize   float64 `json:"mean_batch_size"`
	Consistent      bool    `json:"consistent"`
	Detail          string  `json:"detail,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "http://localhost:8547", "daemon base URL")
		selfhost = flag.Bool("selfhost", false, "boot an in-process daemon on a loopback port")
		n        = flag.Int("n", 256, "total requests")
		c        = flag.Int("c", 32, "concurrent client workers")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate per second (0 = closed loop)")
		mixSpec  = flag.String("mix", catalog.DefaultMixSpec(), "weighted scenario mix over registered scenario names")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		out      = flag.String("out", "", "also write the report JSON to this path")
		devices  = flag.Int("devices", 0, "selfhost: fleet size (0 = default)")
		queue    = flag.Int("queue", 0, "selfhost: admission queue bound (0 = default)")
		seed     = flag.Int64("seed", 42, "selfhost: daemon seed")
		chaos    = flag.String("chaos", "", "selfhost: fault schedule (registered chaos name or JSON file path, empty = off)")
		stateDir = flag.String("state-dir", "", "selfhost: durable state directory; arms the store-metrics consistency gate")
		virtual  = flag.Bool("virtual", false, "run the admission stream on the virtual-time engine instead of a daemon")
		fleets   = flag.Int("fleets", 1, "virtual: replica device fleets to interleave")
		shards   = flag.Int("selfhost-shards", 0, "boot an in-process cluster (gateway + this many shard daemons) and drive load through the gateway")
		paceAir  = flag.Float64("pace", 0, "selfhost: airtime pacing factor (hold each device for pace × protocol timeline; 0 = off)")
		failover = flag.Duration("failover", 0, "selfhost: kill the primary this long into the run and promote a warm standby mid-load; arms the availability gate")
	)
	flag.Parse()

	mix, scenarios, err := resolveMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 1
	}
	if *virtual {
		return runVirtual(mix, scenarios, *n, *devices, *fleets, *seed, *mixSpec, *chaos, *out)
	}

	base := *addr
	var rig *failoverRig
	if *failover > 0 {
		if *shards > 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -failover drives a single primary/standby pair; drop -selfhost-shards")
			return 1
		}
		r, err := newFailoverRig(*devices, *queue, *seed, *stateDir, *paceAir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: failover rig: %v\n", err)
			return 1
		}
		defer r.close()
		rig = r
		base = r.base
		fmt.Printf("failover rig on %s (primary + warm standby; kill at +%s)\n", base, *failover)
	} else if *shards > 0 {
		b, cleanup, err := selfhostCluster(*shards, *devices, *queue, *seed, *stateDir, *paceAir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: selfhost cluster: %v\n", err)
			return 1
		}
		defer cleanup()
		base = b
	} else if *selfhost {
		cfg := service.DefaultConfig()
		cfg.Seed = *seed
		if *devices > 0 {
			cfg.Devices = *devices
		}
		if *queue > 0 {
			cfg.QueueDepth = *queue
		}
		sch, err := catalog.ResolveChaos(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		cfg.Chaos = sch
		cfg.StateDir = *stateDir
		cfg.PaceAirtime = *paceAir
		svc, err := service.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: selfhost: %v\n", err)
			return 1
		}
		if *stateDir != "" {
			// Drive no load until recovery completes — the gate below
			// accounts durable records against completed sessions, so the
			// run must start from a ready store.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := svc.WaitReady(ctx)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: selfhost recovery: %v\n", err)
				return 1
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: selfhost: %v\n", err)
			return 1
		}
		server := &http.Server{Handler: svc.Handler()}
		go func() { _ = server.Serve(ln) }()
		defer func() { _ = server.Close() }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("selfhost daemon on %s (%d devices, queue %d)\n", base, cfg.Devices, cfg.QueueDepth)
	}
	base = strings.TrimSuffix(base, "/")

	client := &http.Client{Timeout: *timeout}

	// Open-loop pacing: a ticker feeds request permits; closed loop hands
	// out permits immediately. Workers pull the next request index from a
	// shared counter so the scenario mix is exact regardless of
	// interleaving.
	var pace <-chan time.Time
	if *rate > 0 {
		ticker := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer ticker.Stop()
		pace = ticker.C
	}

	var (
		next      atomic.Int64
		rejected  atomic.Int64
		deferred  atomic.Int64
		httpErrs  atomic.Int64
		mu        sync.Mutex
		outcomes  = map[string]int{}
		latencies sim.Stats
		delays    sim.Stats
	)
	var (
		foMu          sync.Mutex
		ackedByDevice = map[int]int{}
		first503      time.Time
		last503       time.Time
	)
	start := time.Now()
	if rig != nil {
		rig.armKill(*failover)
	}
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) {
					return
				}
				if pace != nil {
					<-pace
				}
				scenario := mix.Pick(uint64(i))
				view, code, err := doUnlock(client, base, scenario)
				// 429 is queue backpressure; 503 with a Retry-After header is
				// deferral (draining shard, fenced handoff range, gateway
				// retry hint) — both carry a retry time, so neither is a
				// dropped request.
				for err == nil && (code == http.StatusTooManyRequests ||
					(code == http.StatusServiceUnavailable && view.retryAfter != "")) {
					if code == http.StatusTooManyRequests {
						rejected.Add(1)
					} else {
						deferred.Add(1)
						if rig != nil {
							now := time.Now()
							foMu.Lock()
							if first503.IsZero() {
								first503 = now
							}
							last503 = now
							foMu.Unlock()
						}
					}
					time.Sleep(retryAfter(view.retryAfter))
					view, code, err = doUnlock(client, base, scenario)
				}
				if err != nil || code != http.StatusOK {
					httpErrs.Add(1)
					continue
				}
				mu.Lock()
				key := view.Outcome
				if view.State == "failed" || key == "" {
					key = "error"
				}
				outcomes[key]++
				latencies.Add(view.WallMS)
				if view.UnlockDelayMS > 0 {
					delays.Add(view.UnlockDelayMS)
				}
				mu.Unlock()
				if rig != nil && view.Unlocked {
					foMu.Lock()
					ackedByDevice[view.Device]++
					foMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// The metrics-consistency gate certifies a daemon whose counters
	// cover the whole run; a scripted failover kills the primary and its
	// counters with it, so the failover run certifies availability
	// instead (below) and skips the scrape.
	var daemonOutcomes map[string]int
	detail, diff := "", ""
	match := true
	if rig == nil {
		daemonOutcomes, detail, err = scrapeOutcomes(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics scrape: %v\n", err)
			return 1
		}
		match, diff = compareOutcomes(outcomes, daemonOutcomes)
	} else {
		detail = "metrics certification skipped: the scripted failover took the primary's counters with it. "
	}

	completed := 0
	for _, v := range outcomes {
		completed += v
	}

	// Durability gate: with a state dir, every completed session must
	// have left at least one durable WAL record behind, a clean run must
	// report zero corruptions, and the recovery gauge must be exposed.
	var storeRep *storeReport
	if *stateDir != "" && rig == nil {
		rep, err := scrapeStoreMetrics(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: store metrics scrape: %v\n", err)
			return 1
		}
		var problems []string
		if rep.FsyncDisabled {
			// A no-fsync run can report every other number perfectly and
			// still lose acknowledged sessions at the wall socket; the gate
			// refuses to certify it rather than grading it.
			problems = append(problems, "wearlockd_fsync_disabled=1: commits are not power-loss durable, refusing to certify")
		}
		if rep.Corruptions != 0 {
			problems = append(problems, fmt.Sprintf("wearlockd_store_corruptions_total=%d, want 0", rep.Corruptions))
		}
		if rep.WALRecords < completed {
			problems = append(problems, fmt.Sprintf("wearlockd_wal_records_total=%d < %d completed sessions", rep.WALRecords, completed))
		}
		if completed > 0 {
			if rep.Commits == 0 {
				problems = append(problems, "wearlockd_wal_batch_size_count=0: the group committer recorded no batches")
			} else if rep.MeanBatchSize < 1 {
				problems = append(problems, fmt.Sprintf("wearlockd_wal_batch_size mean=%.3f < 1: batches smaller than their own records", rep.MeanBatchSize))
			}
		}
		rep.Consistent = len(problems) == 0
		rep.Detail = strings.Join(problems, "; ")
		storeRep = &rep
	}

	// Availability gate: the scripted failover must have promoted the
	// standby, every failed request must have been a retryable 503, the
	// 503 burst must be bounded, and every 200-acked unlock must be
	// covered by the promoted follower's verifier counters.
	var foRep *failoverReport
	if rig != nil {
		foRep = rig.evaluate(*failover, ackedByDevice, httpErrs.Load(), deferred.Load(), first503, last503)
	}
	rec := record{
		Date:           time.Now().UTC().Format("2006-01-02"),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Requests:       *n,
		Concurrency:    *c,
		RatePerSec:     *rate,
		Mix:            *mixSpec,
		Chaos:          *chaos,
		Selfhost:       *selfhost || *shards > 0,
		Shards:         *shards,
		WallSeconds:    wall.Seconds(),
		Throughput:     float64(completed) / wall.Seconds(),
		Outcomes:       outcomes,
		Rejected429:    rejected.Load(),
		Deferred503:    deferred.Load(),
		HTTPErrors:     httpErrs.Load(),
		Latency:        summarize(&latencies),
		UnlockDelay:    summarize(&delays),
		MetricsMatch:   match,
		MetricsDetail:  diff,
		DaemonOutcomes: daemonOutcomes,
		Store:          storeRep,
		Failover:       foRep,
		Note: "Closed-loop (or -rate paced) synchronous unlock sessions against wearlockd's HTTP API. " +
			"latency = client-observed wall clock incl. queueing; unlock_delay = simulated protocol timeline. " +
			"metrics_match_observed compares /metrics outcome counters to client-side counts. " + detail,
	}

	printReport(rec)
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if !match {
		fmt.Fprintf(os.Stderr, "loadgen: daemon metrics disagree with observed outcomes: %s\n", diff)
		// Only a freshly-booted daemon's counters must match exactly; an
		// external daemon may carry traffic from before this run.
		if *selfhost || *shards > 0 {
			return 1
		}
	}
	if storeRep != nil && !storeRep.Consistent {
		fmt.Fprintf(os.Stderr, "loadgen: store metrics inconsistent: %s\n", storeRep.Detail)
		if *selfhost || *shards > 0 {
			return 1
		}
	}
	if foRep != nil {
		if !foRep.Pass {
			fmt.Fprintf(os.Stderr, "loadgen: availability gate failed: %s\n", foRep.Detail)
			return 1
		}
		fmt.Printf("availability gate pass: promoted standby, %d deferred 503s in a %.0f ms burst, "+
			"%d acked unlocks all covered after promotion\n",
			foRep.Deferred503, foRep.BurstSpanMS, foRep.AckedUnlocks)
	}
	return 0
}

// scrapeStoreMetrics pulls the durability gauges/counters out of the
// Prometheus text exposition. wearlockd_recovery_seconds must be
// present whenever the daemon runs with a state dir; its absence is a
// scrape failure, not a zero.
func scrapeStoreMetrics(client *http.Client, base string) (storeReport, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return storeReport{}, err
	}
	defer resp.Body.Close()
	var rep storeReport
	var batchSum, batchCount, commitCount float64
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		// A gateway's aggregated exposition carries these series once per
		// shard with a shard label; counters (and histogram sums/counts)
		// sum, the recovery gauge reports the slowest shard, and the
		// fsync-disabled gauge trips if any shard runs unsafe.
		name, _, valStr, ok := splitSample(sc.Text())
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		switch name {
		case "wearlockd_wal_records_total":
			rep.WALRecords += int(v)
		case "wearlockd_store_corruptions_total":
			rep.Corruptions += int(v)
		case "wearlockd_recovery_seconds":
			if v > rep.RecoverySeconds {
				rep.RecoverySeconds = v
			}
		case "wearlockd_fsync_disabled":
			if v > 0 {
				rep.FsyncDisabled = true
			}
		case "wearlockd_commit_seconds_count":
			commitCount += v
		case "wearlockd_wal_batch_size_sum":
			batchSum += v
		case "wearlockd_wal_batch_size_count":
			batchCount += v
		default:
			continue
		}
		seen[name] = true
	}
	if err := sc.Err(); err != nil {
		return storeReport{}, err
	}
	for _, want := range []string{
		"wearlockd_wal_records_total", "wearlockd_store_corruptions_total", "wearlockd_recovery_seconds",
		"wearlockd_fsync_disabled", "wearlockd_commit_seconds_count", "wearlockd_wal_batch_size_sum",
		"wearlockd_wal_batch_size_count",
	} {
		if !seen[want] {
			return storeReport{}, fmt.Errorf("%s missing from /metrics", want)
		}
	}
	rep.Commits = int(batchCount)
	if batchCount > 0 {
		rep.MeanBatchSize = batchSum / batchCount
	}
	_ = commitCount // presence-checked above; the latency distribution itself is informational
	return rep, nil
}

// unlockView is the slice of service.View loadgen needs, plus transport
// detail.
type unlockView struct {
	State         string  `json:"state"`
	Outcome       string  `json:"outcome"`
	Device        int     `json:"device"`
	Unlocked      bool    `json:"unlocked"`
	WallMS        float64 `json:"wall_ms"`
	UnlockDelayMS float64 `json:"unlock_delay_ms"`
	retryAfter    string
}

func doUnlock(client *http.Client, base, scenario string) (unlockView, int, error) {
	body, _ := json.Marshal(map[string]any{"scenario": scenario})
	resp, err := client.Post(base+"/v1/unlock", "application/json", bytes.NewReader(body))
	if err != nil {
		return unlockView{}, 0, err
	}
	defer resp.Body.Close()
	var view unlockView
	view.retryAfter = resp.Header.Get("Retry-After")
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return unlockView{}, resp.StatusCode, err
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return view, resp.StatusCode, nil
}

func retryAfter(header string) time.Duration {
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 100 * time.Millisecond
}

// scrapeOutcomes parses wearlockd_sessions_total outcome counters out of
// the Prometheus text exposition, summing over any extra labels (a
// gateway's aggregate splits each outcome by shard).
func scrapeOutcomes(client *http.Client, base string) (map[string]int, string, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, labels, valStr, ok := splitSample(line)
		if !ok || name != "wearlockd_sessions_total" {
			continue
		}
		outcome, ok := labelValue(labels, "outcome")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, "", fmt.Errorf("bad counter line %q: %w", line, err)
		}
		counts[outcome] += int(v)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	return counts, fmt.Sprintf("%d outcome counters scraped.", len(counts)), nil
}

// splitSample parses one exposition sample line, `name{labels} value` or
// `name value`, tolerating a trailing timestamp.
func splitSample(line string) (name, labels, value string, ok bool) {
	if line == "" || strings.HasPrefix(line, "#") {
		return "", "", "", false
	}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", false
		}
		name, labels, rest = line[:i], line[i+1:j], line[j+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		name, rest = line[:i], line[i:]
	} else {
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", "", false
	}
	return name, labels, fields[0], true
}

// labelValue extracts one label's value out of a sample's label string.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if ok && k == key {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// selfhostCluster boots shard daemons plus a consistent-hash gateway
// in-process and returns the gateway's base URL — the cluster equivalent
// of -selfhost. With a -state-dir, each shard gets its own subdirectory.
func selfhostCluster(n, devices, queue int, seed int64, stateDir string, pace float64) (string, func(), error) {
	def := service.DefaultConfig()
	if devices > 0 {
		def.Devices = devices
	}
	if queue > 0 {
		def.QueueDepth = queue
	}
	def.Seed = seed
	def.PaceAirtime = pace

	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	var shardCfgs []cluster.ShardConfig
	for i := 0; i < n; i++ {
		cfg := def
		cfg.ShardID = fmt.Sprintf("s%d", i)
		if stateDir != "" {
			cfg.StateDir = stateDir + "/" + cfg.ShardID
		}
		svc, err := service.New(cfg)
		if err != nil {
			cleanup()
			return "", nil, fmt.Errorf("shard %s: %w", cfg.ShardID, err)
		}
		if cfg.StateDir != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := svc.WaitReady(ctx)
			cancel()
			if err != nil {
				cleanup()
				return "", nil, fmt.Errorf("shard %s recovery: %w", cfg.ShardID, err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return "", nil, err
		}
		server := &http.Server{Handler: svc.Handler()}
		go func() { _ = server.Serve(ln) }()
		cleanups = append(cleanups, func() { _ = server.Close() })
		shardCfgs = append(shardCfgs, cluster.ShardConfig{
			Name:    cfg.ShardID,
			BaseURL: "http://" + ln.Addr().String(),
		})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Shards: shardCfgs, TotalDevices: def.Devices})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = gw.Register(ctx)
	cancel()
	if err != nil {
		cleanup()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, err
	}
	server := &http.Server{Handler: gw.Handler()}
	go func() { _ = server.Serve(ln) }()
	cleanups = append(cleanups, func() {
		_ = server.Close()
		gw.Close()
	})
	base := "http://" + ln.Addr().String()
	fmt.Printf("selfhost cluster on %s (%d shards, %d devices)\n", base, n, def.Devices)
	return base, cleanup, nil
}

// compareOutcomes checks the daemon's counters cover exactly the
// client-observed counts (both directions).
func compareOutcomes(observed, daemon map[string]int) (bool, string) {
	var diffs []string
	for k, v := range observed {
		if daemon[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s: observed %d, daemon %d", k, v, daemon[k]))
		}
	}
	for k, v := range daemon {
		if _, ok := observed[k]; !ok && v != 0 {
			diffs = append(diffs, fmt.Sprintf("%s: observed 0, daemon %d", k, v))
		}
	}
	if len(diffs) == 0 {
		return true, ""
	}
	sort.Strings(diffs)
	return false, strings.Join(diffs, "; ")
}

func summarize(s *sim.Stats) latencySummary {
	sum := s.Summarize()
	return latencySummary{
		Count:  sum.Count,
		MeanMS: sum.Mean,
		P50MS:  sum.P50,
		P90MS:  sum.P90,
		P99MS:  sum.P99,
		MaxMS:  sum.Max,
	}
}

func printReport(rec record) {
	fmt.Printf("\n%d requests, %d workers", rec.Requests, rec.Concurrency)
	if rec.RatePerSec > 0 {
		fmt.Printf(", %.0f req/s pacing", rec.RatePerSec)
	}
	fmt.Printf("  →  %.2fs wall, %.1f sessions/s\n", rec.WallSeconds, rec.Throughput)
	names := make([]string, 0, len(rec.Outcomes))
	for k := range rec.Outcomes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-22s %d\n", k, rec.Outcomes[k])
	}
	if rec.Rejected429 > 0 {
		fmt.Printf("  %-22s %d (retried)\n", "429 backpressure", rec.Rejected429)
	}
	if rec.HTTPErrors > 0 {
		fmt.Printf("  %-22s %d\n", "http errors", rec.HTTPErrors)
	}
	fmt.Printf("  latency      p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
		rec.Latency.P50MS, rec.Latency.P90MS, rec.Latency.P99MS, rec.Latency.MaxMS)
	fmt.Printf("  unlock delay p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		rec.UnlockDelay.P50MS, rec.UnlockDelay.P90MS, rec.UnlockDelay.P99MS)
	fmt.Printf("  metrics consistency: %v\n", rec.MetricsMatch)
	if rec.MetricsDetail != "" && !rec.MetricsMatch {
		fmt.Printf("    %s\n", rec.MetricsDetail)
	}
	if rec.Store != nil {
		fmt.Printf("  store consistency: %v (%d WAL records, %d corruptions, recovery %.3fs, %d commit batches, mean batch %.2f)\n",
			rec.Store.Consistent, rec.Store.WALRecords, rec.Store.Corruptions, rec.Store.RecoverySeconds,
			rec.Store.Commits, rec.Store.MeanBatchSize)
		if !rec.Store.Consistent {
			fmt.Printf("    %s\n", rec.Store.Detail)
		}
	}
}

// failoverReport is the -failover availability gate's outcome: the
// scripted mid-load failover must promote the warm standby, every
// failed request must have been a retryable 503, the 503 burst must be
// bounded, and every 200-acked unlock must be covered by the promoted
// follower's verifier counters (no acked session lost, no replay
// accepted).
type failoverReport struct {
	KillAfterS         float64 `json:"kill_after_seconds"`
	Promoted           bool    `json:"promoted"`
	Deferred503        int64   `json:"deferred_503"`
	BurstSpanMS        float64 `json:"burst_span_ms"`
	AckedUnlocks       int     `json:"acked_unlocks"`
	NonRetryableErrors int64   `json:"non_retryable_errors"`
	KeyChanges         int     `json:"key_changes"`
	CounterRegressions int     `json:"counter_regressions"`
	LostOrReplayed     int     `json:"lost_or_replayed"`
	Pass               bool    `json:"pass"`
	Detail             string  `json:"detail,omitempty"`
}

// failoverRig is the -failover harness: a durable primary with an
// attached warm standby of the same fleet behind a registered gateway,
// heartbeats driven on a manual clock at wall speed so detection costs
// real milliseconds. The load loop sees only the gateway URL; the rig
// kills the primary on schedule and the gateway fences + promotes.
type failoverRig struct {
	base              string
	primary, follower *service.Service
	gw                *cluster.Gateway
	clock             *vtime.ManualClock
	primarySrv        *http.Server
	initial           store.State
	killT             *time.Timer
	stopHB            chan struct{}
	hbWG              sync.WaitGroup
	cleanup           []func()
}

func newFailoverRig(devices, queue int, seed int64, stateDir string, pace float64) (*failoverRig, error) {
	r := &failoverRig{stopHB: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	if stateDir == "" {
		dir, err := os.MkdirTemp("", "loadgen-failover-*")
		if err != nil {
			return nil, err
		}
		r.cleanup = append(r.cleanup, func() { _ = os.RemoveAll(dir) })
		stateDir = dir
	}
	mkCfg := func(sub string, follow bool) service.Config {
		cfg := service.DefaultConfig()
		cfg.Seed = seed
		if devices > 0 {
			cfg.Devices = devices
		}
		if queue > 0 {
			cfg.QueueDepth = queue
		}
		cfg.PaceAirtime = pace
		cfg.ShardID = "s0"
		cfg.StateDir = filepath.Join(stateDir, sub)
		cfg.NoFsync = true // the failover run certifies availability, not power-loss durability
		cfg.Follow = follow
		return cfg
	}
	boot := func(cfg service.Config) (*service.Service, string, *http.Server, error) {
		svc, err := service.New(cfg)
		if err != nil {
			return nil, "", nil, err
		}
		r.cleanup = append(r.cleanup, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = svc.Shutdown(ctx)
			cancel()
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err = svc.WaitReady(ctx)
		cancel()
		if err != nil {
			return nil, "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", nil, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go func() { _ = srv.Serve(ln) }()
		r.cleanup = append(r.cleanup, func() { _ = srv.Close() })
		return svc, "http://" + ln.Addr().String(), srv, nil
	}

	var primaryURL, followerURL string
	var err error
	r.primary, primaryURL, r.primarySrv, err = boot(mkCfg("primary", false))
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	var fsrv *http.Server
	r.follower, followerURL, fsrv, err = boot(mkCfg("standby", true))
	_ = fsrv
	if err != nil {
		return nil, fmt.Errorf("standby: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = r.follower.FollowPrimary(ctx, primaryURL, followerURL)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("FollowPrimary: %w", err)
	}
	r.clock = vtime.NewManualClock(time.Unix(1_700_000_000, 0))
	fleet := service.DefaultConfig().Devices
	if devices > 0 {
		fleet = devices
	}
	r.gw, err = cluster.NewGateway(cluster.GatewayConfig{
		Shards:          []cluster.ShardConfig{{Name: "s0", BaseURL: primaryURL}},
		TotalDevices:    fleet,
		HeartbeatMisses: 2,
		Standbys:        map[string]string{"s0": followerURL},
		Clock:           r.clock,
		Client:          &http.Client{Timeout: 10 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	err = r.gw.Register(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("gateway register: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gsrv := &http.Server{Handler: r.gw.Handler()}
	go func() { _ = gsrv.Serve(ln) }()
	r.cleanup = append(r.cleanup, func() {
		_ = gsrv.Close()
		r.gw.Close()
	})
	r.base = "http://" + ln.Addr().String()

	// Pre-load snapshot: the pairing-key and counter floor every device
	// must still satisfy after promotion.
	if st, ok := r.primary.StoreState(); ok {
		r.initial = st
	}

	r.hbWG.Add(1)
	go func() {
		defer r.hbWG.Done()
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.stopHB:
				return
			case <-tick.C:
				r.clock.Advance(time.Second)
				hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
				r.gw.HeartbeatOnce(hctx)
				hcancel()
			}
		}
	}()
	ok = true
	return r, nil
}

// armKill schedules the primary's death: its listener is torn down
// first so in-flight responses die at the transport (clients see a
// retryable gateway 503, never a half-written error), then the daemon
// is killed without any graceful drain.
func (r *failoverRig) armKill(after time.Duration) {
	r.killT = time.AfterFunc(after, func() {
		_ = r.primarySrv.Close()
		r.primary.Kill()
	})
}

func (r *failoverRig) close() {
	if r.killT != nil {
		r.killT.Stop()
	}
	select {
	case <-r.stopHB:
	default:
		close(r.stopHB)
	}
	r.hbWG.Wait()
	for i := len(r.cleanup) - 1; i >= 0; i-- {
		r.cleanup[i]()
	}
}

// evaluate grades the availability gate after the load loop drained.
func (r *failoverRig) evaluate(killAfter time.Duration, acked map[int]int, nonRetryable, deferred int64, first503, last503 time.Time) *failoverReport {
	rep := &failoverReport{
		KillAfterS:         killAfter.Seconds(),
		Deferred503:        deferred,
		NonRetryableErrors: nonRetryable,
	}
	for _, n := range acked {
		rep.AckedUnlocks += n
	}
	if !first503.IsZero() {
		rep.BurstSpanMS = float64(last503.Sub(first503)) / float64(time.Millisecond)
	}
	var problems []string
	rep.Promoted = r.follower.ReplicaStatus().Role == "promoted"
	if !rep.Promoted {
		problems = append(problems, fmt.Sprintf("standby role %q, want promoted (did the run outlast -failover?)", r.follower.ReplicaStatus().Role))
	}
	if nonRetryable > 0 {
		problems = append(problems, fmt.Sprintf("%d non-retryable errors; every failure across the kill must be a retryable 503", nonRetryable))
	}
	const burstMax = 2500 * time.Millisecond
	if !first503.IsZero() && last503.Sub(first503) > burstMax {
		problems = append(problems, fmt.Sprintf("503 burst spanned %.0f ms, want <= %v", rep.BurstSpanMS, burstMax))
	}
	final, ok := r.follower.StoreState()
	if !ok {
		problems = append(problems, "promoted standby has no store state")
	} else {
		// Client-observed survival: each acked unlock advanced the
		// device's verifier exactly once, so the follower's counter delta
		// must cover the acked count — fewer means an acked session was
		// lost or a replayed token was double-counted.
		vs := invariant.Check(invariant.Event{Before: r.initial, After: final, Accepted: acked})
		rep.KeyChanges = vs.Count(invariant.KeyChange)
		rep.CounterRegressions = vs.Count(invariant.CounterRegression)
		rep.LostOrReplayed = vs.Count(invariant.LostDevice, invariant.AcceptedReplay)
		if err := vs.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: failover: %v\n", err)
		}
		if rep.KeyChanges > 0 {
			problems = append(problems, fmt.Sprintf("%d pairing keys changed across promotion", rep.KeyChanges))
		}
		if rep.CounterRegressions > 0 {
			problems = append(problems, fmt.Sprintf("%d device counters regressed across promotion", rep.CounterRegressions))
		}
		if rep.LostOrReplayed > 0 {
			problems = append(problems, fmt.Sprintf("%d devices acked more unlocks than their counters advanced (lost ack or accepted replay)", rep.LostOrReplayed))
		}
	}
	if rep.AckedUnlocks == 0 {
		problems = append(problems, "no acked unlocks observed — the gate exercised nothing")
	}
	rep.Pass = len(problems) == 0
	rep.Detail = strings.Join(problems, "; ")
	return rep
}
