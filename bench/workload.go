package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
	"wearlock/internal/sim"
	"wearlock/internal/store"
)

// workload is one traffic mix against one stack. Why each exists is in
// README.md; in short: the mixes are DSP-bound, the light mix aborts
// before any audio so HTTP, admission and the store dominate.
type workload struct {
	name       string
	mix        string
	open       bool // open-loop rate ladder instead of a closed loop
	durable    bool // real-fsync state directory
	crash      bool // warm-up, Kill, then the timed set-up is the reboot
	replicated bool // gateway → durable primary + warm standby
}

// lightMix aborts every session before any audio: out of Bluetooth range
// (link down) or off-body (motion filter).
const lightMix = "out-of-range=1,attacker=1"

var workloads = []workload{
	{name: "mix-closed", mix: catalog.DefaultMixSpec()},
	{name: "mix-open", mix: catalog.DefaultMixSpec(), open: true},
	{name: "durable-light", mix: lightMix, durable: true, crash: true},
	{name: "replicated-light", mix: lightMix, durable: true, replicated: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// setupReps is how many times a run builds its stack; setup_s is the
	// median, and the last build serves the traffic.
	setupReps = 31
	// sampledDevices is how many seed-chosen devices the serial replay
	// re-runs and checks.
	sampledDevices = 4
	// crashWarmup is how many requests the crash workload commits before
	// the crash: a fixed count, so the reboot's recovery work does not
	// depend on how fast the machine ran the warm-up.
	crashWarmup = 10000
	// shadowSessions caps the replayed sessions the shadow calls re-run.
	shadowSessions = 32
	// sloP99 and sloBacklog define the open loop's max_rate_at_slo: p99
	// within 250 ms and at most 0.25 s of arrivals waiting at step end.
	sloP99     = 250.0
	sloBacklog = 0.25
)

// ladder is the open loop's rates in req/s. Today's code serves about
// 110 sessions/s of the default mix on two cores, so 120 overloads it.
var ladder = []float64{40, 80, 120}

// durations are a run's phase lengths, all derived from -seconds.
type durations struct {
	Window float64 `json:"window_s"`    // closed-loop measured window
	Warmup float64 `json:"warmup_s"`    // closed-loop traffic before it
	Step   float64 `json:"open_step_s"` // open loop, per ladder rate
	Gap    float64 `json:"open_gap_s"`  // open loop, idle between rates
}

func durationsFor(seconds float64) durations {
	clamp := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	return durations{
		Window: seconds,
		Warmup: clamp(seconds/6, 0.2, 2),
		Step:   seconds / float64(len(ladder)),
		Gap:    clamp(seconds/10, 0.1, 1),
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runConfig is one run's settings.
type runConfig struct {
	seed   int64
	dur    durations
	traced bool
	dir    string // where the daemons' state directories go
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric; a value that is not a finite number (a
// percentile of nothing) is left out, so it reads as not measured.
func (m metricSet) set(name, unit string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = metric{Value: v, Unit: unit}
	}
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   metricSet          `json:"metrics"`
	SelfMS    map[string]float64 `json:"self_ms_p50,omitempty"`
}

// newClient is the benchmark's HTTP client: at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// runState is one run's working state.
type runState struct {
	w         workload
	rc        runConfig
	senders   int
	client    *http.Client
	scenarios map[string]core.Scenario
	gen       *generator
	sampled   []int // devices the replay checks
	tr        *tracer

	setups        []float64 // seconds
	warm          []*observation
	obs           []*observation // traffic to the final stack
	winStart      time.Time
	front, stdby  [2]exposition // before, after the window
	rt            [2]runtimeSample
	recovery      float64
	rep           *replayReport
	shadow        shadowTimes
	accounted     time.Duration
	shadowSession time.Duration
}

// runWorkload boots the workload's stack, drives its traffic, checks the
// outputs and returns the measured metrics with the recorded spans. A
// non-nil error means the run could not complete; a completed run whose
// outputs failed a check returns Correct false.
func runWorkload(w workload, rc runConfig) (*result, []span, error) {
	r, err := newRunState(w, rc)
	if err != nil {
		return nil, nil, err
	}
	defer r.client.CloseIdleConnections()
	dir, err := os.MkdirTemp(rc.dir, w.name+"-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	checkErr, err := r.execute(dir)
	if err != nil {
		return nil, nil, err
	}
	res, spans := r.finish(checkErr, dir)
	return res, spans, nil
}

func newRunState(w workload, rc runConfig) (*runState, error) {
	senders := runtime.GOMAXPROCS(0)
	scenarios := catalog.ServiceScenarios()
	mix, err := service.ParseMix(w.mix, scenarios)
	if err != nil {
		return nil, err
	}
	fleet := service.DefaultConfig().Devices
	r := &runState{
		w: w, rc: rc, senders: senders, client: newClient(senders), scenarios: scenarios,
		gen:     newGenerator(rc.seed, mix, fleet, senders),
		sampled: sampleDevices(rc.seed, mix, fleet, senders),
	}
	if rc.traced {
		r.tr = newTracer()
	}
	return r, nil
}

// finish replays and checks the executed run and computes its metrics.
func (r *runState) finish(checkErr error, dir string) (*result, []span) {
	res := &result{Workload: r.w.name, Seed: r.rc.seed, Traced: r.rc.traced, Metrics: metricSet{}}
	all := append(append([]*observation(nil), r.warm...), r.obs...)
	res.Attempted = len(all)
	for _, o := range all {
		if o.failed() {
			res.Failed++
		}
	}
	if checkErr == nil {
		checkErr = r.replay(all, dir)
	}
	var spans []span
	if r.tr != nil {
		spans = r.tr.spans
		if checkErr == nil {
			checkErr = checkSpans(spans)
		}
		res.SelfMS = selfTimes(spans)
	}
	res.Correct = checkErr == nil
	if checkErr != nil {
		res.Error = checkErr.Error()
		return res, spans
	}
	r.endToEnd(res.Metrics)
	if r.rc.traced {
		r.layers(res.Metrics)
	}
	return res, spans
}

// execute runs the set-up and the traffic and tears the stack down. The
// first error stops the run; the second reports a failed output check
// (the run itself completed).
func (r *runState) execute(dir string) (checkErr, err error) {
	var st *stack
	if r.w.crash {
		// Warm-up traffic on a fresh directory, quiesced, then a crash: each
		// timed set-up is a reboot that recovers what the warm-up committed.
		first, _, err := boot(r.w, r.rc.seed, dir, false, r.client)
		if err != nil {
			return nil, err
		}
		warm := newTraffic(first.base, r.client, r.gen, r.senders, nil, r.tr)
		warm.closedCount(phaseWarmup, crashWarmup)
		r.warm = warm.observations()
		first.kill()
	}
	for i := 0; i < setupReps; i++ {
		sdir := dir
		if !r.w.crash {
			sdir = filepath.Join(dir, fmt.Sprint(i))
		}
		// A daemon boots into a fresh process; collecting the previous
		// builds' garbage first keeps it from being charged to this one.
		runtime.GC()
		s, took, err := boot(r.w, r.rc.seed, sdir, r.rc.traced, r.client)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, took.Seconds())
		if i == setupReps-1 {
			st = s
		} else if r.w.crash {
			s.kill()
		} else {
			s.shutdown()
		}
	}

	tf := newTraffic(st.base, r.client, r.gen, r.senders, st.proxy, r.tr)
	if !r.w.open && !r.w.crash {
		tf.closed(phaseWarmup, time.Now().Add(secs(r.rc.dur.Warmup)))
	}
	var scrapeErr error
	r.front[0], r.stdby[0], scrapeErr = st.scrape(r.client)
	r.rt[0] = readRuntime()
	r.winStart = time.Now()
	if r.w.open {
		steps := make([]step, len(ladder))
		for i, rate := range ladder {
			steps[i] = step{rate: rate, duration: secs(r.rc.dur.Step)}
		}
		tf.open(steps, secs(r.rc.dur.Gap))
	} else {
		tf.closed(phaseWindow, r.winStart.Add(secs(r.rc.dur.Window)))
	}
	r.rt[1] = readRuntime()
	var scrapeErr2 error
	r.front[1], r.stdby[1], scrapeErr2 = st.scrape(r.client)
	r.obs = tf.observations()

	if scrapeErr != nil || scrapeErr2 != nil {
		checkErr = fmt.Errorf("scraping /metrics: %v %v", scrapeErr, scrapeErr2)
	} else {
		checkErr = countersMatch(r.front[1].outcomes, r.obs)
	}
	if checkErr == nil && r.w.replicated {
		checkErr = replicaMatches(st)
	}
	r.recovery = r.front[1].values["wearlockd_recovery_seconds"]
	if r.w.crash {
		st.kill()
	} else {
		st.shutdown()
	}
	return checkErr, nil
}

// countersMatch requires the daemon's wearlockd_sessions_total to equal
// the outcomes the clients observed from it.
func countersMatch(daemon map[string]int, obs []*observation) error {
	seen := map[string]int{}
	for _, o := range obs {
		if o.status != http.StatusOK {
			continue
		}
		key := o.view.Outcome
		if o.view.State == "failed" || key == "" {
			key = "error"
		}
		seen[key]++
	}
	for k, v := range daemon {
		if v != 0 && seen[k] != v {
			return fmt.Errorf("/metrics counts %d %q sessions, clients saw %d", v, k, seen[k])
		}
	}
	for k, v := range seen {
		if daemon[k] != v {
			return fmt.Errorf("clients saw %d %q sessions, /metrics counts %d", v, k, daemon[k])
		}
	}
	return nil
}

// replicaMatches requires the standby's durable state to equal the
// primary's (accepted ⇒ replicated).
func replicaMatches(st *stack) error {
	p, ok1 := st.primary.StoreState()
	s, ok2 := st.standby.StoreState()
	if !ok1 || !ok2 {
		return fmt.Errorf("primary or standby has no durable store")
	}
	if !reflect.DeepEqual(p.Devices, s.Devices) || p.Service != s.Service {
		return fmt.Errorf("standby state differs from the primary's (%d vs %d devices, service %+v vs %+v)",
			len(s.Devices), len(p.Devices), s.Service, p.Service)
	}
	return nil
}

// sampleDevices picks exactly sampledDevices replayed devices from the
// seed's stream, dealt round-robin over the senders (sender k gets
// sampledDevices/senders, plus one when k < sampledDevices%senders):
// the first distinct devices of each sender's share of the stream. They
// are among the first requests a run sends, so even a short run replays
// sessions, and the count does not depend on the number of CPUs.
func sampleDevices(seed int64, mix *service.Mix, fleet, senders int) []int {
	g := newGenerator(seed, mix, fleet, senders)
	quota := make([]int, senders)
	for i := 0; i < min(sampledDevices, fleet); i++ {
		quota[i%senders]++
	}
	seen := map[int]bool{}
	var out []int
	for len(out) < min(sampledDevices, fleet) {
		r := g.draw()
		if k := r.device % senders; quota[k] > 0 && !seen[r.device] {
			quota[k]--
			seen[r.device] = true
			out = append(out, r.device)
		}
	}
	sort.Ints(out)
	return out
}

// replay re-runs the sampled devices' sessions, checks them, checks the
// crash workload's durable state against the replayed devices, and (in
// traced runs) makes the shadow calls.
func (r *runState) replay(all []*observation, dir string) error {
	byDevice := map[int][]*observation{}
	for _, d := range r.sampled {
		byDevice[d] = nil
	}
	for _, o := range all {
		if _, ok := byDevice[o.device]; ok {
			byDevice[o.device] = append(byDevice[o.device], o)
		}
	}
	keepEvery := 0
	if r.tr != nil {
		ran := 0
		for _, obs := range byDevice {
			for _, o := range obs {
				if o.status == http.StatusOK {
					ran++
				}
			}
		}
		keepEvery = max(1, (ran+shadowSessions-1)/shadowSessions)
	}
	cfg := service.DefaultConfig().Core
	rep, err := replayDevices(cfg, r.rc.seed, r.scenarios, r.sampled, byDevice, keepEvery, r.tr)
	if err != nil {
		return err
	}
	r.rep = rep
	if r.w.crash {
		state, _, err := store.Inspect(filepath.Join(dir, "primary"))
		if err != nil {
			return err
		}
		for dev, f := range rep.finals {
			ds, ok := state.Devices[dev]
			if !ok && len(byDevice[dev]) > 0 {
				return fmt.Errorf("device %d: no durable record after %d sessions", dev, len(byDevice[dev]))
			}
			if ok && (ds.GenCounter != f.export.GenCounter || ds.VerCounter != f.export.VerCounter || ds.RngDraws != f.draws) {
				return fmt.Errorf("device %d: durable gen/ver/draws %d/%d/%d, replay %d/%d/%d", dev,
					ds.GenCounter, ds.VerCounter, ds.RngDraws, f.export.GenCounter, f.export.VerCounter, f.draws)
			}
		}
	}
	if r.tr == nil {
		return nil
	}
	r.shadow = shadowTimes{}
	rng := rand.New(rand.NewSource(sim.SeedFor(r.rc.seed, -2)))
	for _, s := range rep.sessions {
		if !s.keep {
			continue
		}
		root := r.tr.add(s.obs.idx, 0, "bench.shadow", time.Now(), time.Time{})
		acc, err := shadow(cfg, s, rng, r.shadow, r.tr, root)
		if err != nil {
			return err
		}
		r.tr.end(root, time.Now())
		r.accounted += acc
		r.shadowSession += s.end.Sub(s.start)
	}
	return nil
}

// windowObs returns the measured requests: the closed loop's window, or
// every step of the open loop.
func (r *runState) windowObs() []*observation {
	var out []*observation
	for _, o := range r.obs {
		if o.phase >= phaseWindow {
			out = append(out, o)
		}
	}
	return out
}

// sliceSeconds is the length of the slices a closed loop's window is cut
// into. On a shared VM, CPU speed drifts in regimes lasting seconds, so
// throughput and median latency are medians over slices: a slow regime
// covering less than half the window does not move them.
const sliceSeconds = 2.0

// sliceMedians cuts [start, start+length) into slices of about
// sliceSeconds, files each observation under the slice it finished in
// (stragglers after the end go to the last slice), and returns the median
// over slices of the completions per second and of the median latency.
func sliceMedians(obs []*observation, start time.Time, length time.Duration) (perSec, p50 float64) {
	n := max(1, int(math.Round(length.Seconds()/sliceSeconds)))
	width := length / time.Duration(n)
	lats := make([][]float64, n)
	for _, o := range obs {
		i := min(n-1, max(0, int(o.done.Sub(start)/width)))
		lats[i] = append(lats[i], o.rttMS())
	}
	rates, medians := make([]float64, n), make([]float64, n)
	for i, l := range lats {
		rates[i] = float64(len(l)) / width.Seconds()
		medians[i] = percentile(l, 0.50)
	}
	_, perSec, _ = quartiles(rates)
	_, p50, _ = quartiles(medians)
	return perSec, p50
}

// endToEnd computes the metrics a user of the service sees: set-up time,
// heap bytes allocated per session and the protocol's unlock delay, which
// BENCHMARK.json bounds, and throughput, latency, failure and unlock
// fractions and the open loop's per-rate latencies and max_rate_at_slo,
// which it does not (README.md says why).
func (r *runState) endToEnd(m metricSet) {
	_, setup, _ := quartiles(r.setups)
	m.set("setup_s", "s", setup)
	win := r.windowObs()
	var ok []*observation
	var delay []float64
	unlocked := 0
	last := r.winStart
	for _, o := range win {
		if o.done.After(last) {
			last = o.done
		}
		if o.failed() {
			continue
		}
		ok = append(ok, o)
		if o.view.Unlocked {
			unlocked++
		}
		delay = append(delay, o.view.UnlockDelayMS)
	}
	m.set("fail_frac", "ratio", ratio(float64(len(win)-len(ok)), float64(len(win))))
	m.set("unlock_frac", "ratio", ratio(float64(unlocked), float64(len(ok))))
	m.set("unlock_delay_p50_ms", "ms", percentile(delay, 0.50))
	m.set("unlock_delay_mean_ms", "ms", mean(delay))
	// Process-wide over the window: the daemons' allocations plus the load
	// generator's fixed per-request share.
	m.set("alloc_bytes_per_session", "B", ratio(r.rt[1].allocBytes-r.rt[0].allocBytes, float64(len(ok))))
	if !r.w.open {
		perSec, p50 := sliceMedians(ok, r.winStart, secs(r.rc.dur.Window))
		var lat []float64
		for _, o := range ok {
			lat = append(lat, o.rttMS())
		}
		m.set("sessions_per_s", "1/s", perSec)
		m.set("latency_p50_ms", "ms", p50)
		// The tail over the whole window: a slice holds too few samples
		// for a p99 with ten beyond it.
		m.set("latency_p99_ms", "ms", percentile(lat, 0.99))
		return
	}
	// The open loop's sessions_per_s is its completions over the time the
	// ladder kept the daemon busy, and its latency_* are those of the
	// lowest rate, timed from the due time.
	busy := last.Sub(r.winStart) - time.Duration(len(ladder)-1)*secs(r.rc.dur.Gap)
	m.set("sessions_per_s", "1/s", float64(len(ok))/busy.Seconds())
	m.set("max_rate_at_slo", "req/s", 0)
	for i, rate := range ladder {
		var lat []float64
		backlog := 0
		stepEnd := r.winStart.Add(time.Duration(i)*secs(r.rc.dur.Step+r.rc.dur.Gap) + secs(r.rc.dur.Step))
		for _, o := range ok {
			if o.phase == phaseWindow+i {
				lat = append(lat, ms(o.done.Sub(o.due)))
				if o.sent.After(stepEnd) {
					backlog++
				}
			}
		}
		tag := fmt.Sprintf(".r%.0f", rate)
		m.set("open_p50_ms"+tag, "ms", percentile(lat, 0.50))
		m.set("open_p98_ms"+tag, "ms", percentile(lat, 0.98))
		m.set("open_p99_ms"+tag, "ms", percentile(lat, 0.99))
		m.set("open_backlog_s"+tag, "s", float64(backlog)/rate)
		if percentile(lat, 0.99) <= sloP99 && float64(backlog)/rate <= sloBacklog {
			m.set("max_rate_at_slo", "req/s", rate)
		}
		if i == 0 {
			m.set("latency_p50_ms", "ms", percentile(lat, 0.50))
			m.set("latency_p99_ms", "ms", percentile(lat, 0.99))
		}
	}
}

// layers computes the per-layer metrics of a traced run.
func (r *runState) layers(m metricSet) {
	win := r.windowObs()
	var late, overhead, wall, proxy []float64
	ok := 0
	for _, o := range win {
		late = append(late, ms(o.given.Sub(o.due)))
		if o.failed() {
			continue
		}
		ok++
		wall = append(wall, o.view.WallMS)
		inner := window{o.sent, o.done}
		if !o.inner.start.IsZero() {
			inner = o.inner
			proxy = append(proxy, o.rttMS()-ms(o.inner.end.Sub(o.inner.start)))
		}
		overhead = append(overhead, ms(inner.end.Sub(inner.start))-o.view.WallMS)
	}
	m.set("bench.requests", "count", float64(len(win)))
	m.set("bench.gen_late_ms_p99", "ms", percentile(late, 0.99))
	m.set("http.overhead_ms_p50", "ms", percentile(overhead, 0.50))
	m.set("service.wall_ms_p50", "ms", percentile(wall, 0.50))
	m.set("service.wall_ms_p99", "ms", percentile(wall, 0.99))

	var session, hold, transmitMS []float64
	transmitted, useful := 0, 0
	for _, s := range r.rep.sessions {
		session = append(session, s.sessionMS())
		if s.obs.phase >= phaseWindow {
			hold = append(hold, s.obs.view.WallMS-s.sessionMS())
		}
		for _, t := range s.sends {
			transmitMS = append(transmitMS, ms(t.end.Sub(t.start)))
		}
		if len(s.sends) > 0 {
			transmitted++
			if s.res.Unlocked {
				useful++
			}
		}
	}
	m.set("service.hold_ms_p50", "ms", percentile(hold, 0.50))
	m.set("core.session_ms_p50", "ms", percentile(session, 0.50))
	m.set("core.session_ms_p99", "ms", percentile(session, 0.99))
	m.set("core.alloc_bytes_per_session", "B", r.rep.allocBytes)
	m.set("core.allocs_per_session", "count", r.rep.allocs)
	m.set("core.accounted_frac", "ratio", ratio(float64(r.accounted), float64(r.shadowSession)))
	m.set("acoustic.transmit_calls_per_session", "count", ratio(float64(len(transmitMS)), float64(len(r.rep.sessions))))
	if transmitted > 0 {
		m.set("acoustic.transmit_ms_p50", "ms", percentile(transmitMS, 0.50))
		m.set("core.useful_frac", "ratio", float64(useful)/float64(transmitted))
	}
	names := make([]string, 0, len(r.shadow))
	for layer := range r.shadow {
		names = append(names, layer)
	}
	sort.Strings(names)
	for _, layer := range names {
		m.set(layer+"_ms_p50", "ms", percentile(r.shadow[layer], 0.50))
	}

	gc := r.rt[1].gcCPU - r.rt[0].gcCPU
	m.set("runtime.gc_cpu_frac", "ratio", ratio(gc, r.rt[1].totalCPU-r.rt[0].totalCPU))

	b, a := r.front[0], r.front[1]
	m.set("service.rejected", "count", delta(b, a, "wearlockd_rejected_total"))
	if r.w.durable {
		commits := delta(b, a, "wearlockd_commit_seconds_count")
		batches := delta(b, a, "wearlockd_wal_batch_size_count")
		m.set("store.commit_wait_ms_mean", "ms", 1000*ratio(delta(b, a, "wearlockd_commit_seconds_sum"), commits))
		m.set("store.batch_size_mean", "count", ratio(delta(b, a, "wearlockd_wal_batch_size_sum"), batches))
		m.set("store.fsyncs_per_session", "count", ratio(batches, float64(ok)))
		m.set("store.wal_records", "count", delta(b, a, "wearlockd_wal_records_total"))
		m.set("store.recovery_s", "s", r.recovery)
	}
	if r.w.replicated {
		m.set("cluster.proxy_ms_p50", "ms", percentile(proxy, 0.50))
		m.set("cluster.reroutes", "count", delta(b, a, "wearlock_gateway_reroutes_total"))
		m.set("cluster.shard_errors", "count", delta(b, a, "wearlock_gateway_shard_errors_total"))
		m.set("replica.batches_per_session", "count",
			ratio(delta(r.stdby[0], r.stdby[1], "wearlockd_replica_applied_batches_total"), float64(ok)))
		m.set("replica.hold_ms_p50", "ms", percentile(hold, 0.50)-m["store.commit_wait_ms_mean"].Value)
	}
}
