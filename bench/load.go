package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wearlock/internal/service"
)

// request is one generated unlock: its index in the seeded stream (also
// its trace id), the scenario, and the device it is pinned to.
type request struct {
	idx      int64
	scenario string
	device   int
}

// generator is the seeded request stream. Scenarios are drawn by mix
// weight and devices uniformly; sender k owns the devices ≡ k (mod
// senders) and takes the stream's requests for them in stream order, so
// every device's session sequence is a prefix of a list fixed by the
// seed, however the senders interleave.
type generator struct {
	mu      sync.Mutex
	rng     *rand.Rand
	mix     *service.Mix
	devices int
	next    int64
	queues  [][]request // per sender: drawn but not yet taken
}

func newGenerator(seed int64, mix *service.Mix, devices, senders int) *generator {
	return &generator{
		rng:     rand.New(rand.NewSource(seed)),
		mix:     mix,
		devices: devices,
		queues:  make([][]request, senders),
	}
}

// draw extends the stream by one request. Caller holds g.mu.
func (g *generator) draw() request {
	// Pick maps any index onto the weighted mix (index mod total weight),
	// so a uniform 64-bit draw picks each scenario with its weight.
	r := request{idx: g.next, scenario: g.mix.Pick(g.rng.Uint64()), device: g.rng.Intn(g.devices)}
	g.next++
	return r
}

// nextFor returns sender k's next request: the earliest not yet taken
// request of the stream whose device sender k owns.
func (g *generator) nextFor(k int) request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.queues[k]) == 0 {
		r := g.draw()
		owner := r.device % len(g.queues)
		g.queues[owner] = append(g.queues[owner], r)
	}
	r := g.queues[k][0]
	g.queues[k] = g.queues[k][1:]
	return r
}

// nextAny returns the stream's next request, for the open-loop
// dispatcher (which runs on a fresh stream, so no sender queue holds
// requests drawn earlier).
func (g *generator) nextAny() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draw()
}

// Phases of a run's traffic. Warm-up traffic is checked like any other
// but not measured; open-loop steps are phaseWindow+step.
const (
	phaseWarmup = 0
	phaseWindow = 1
)

// observation is what the client saw for one request.
type observation struct {
	request
	phase  int
	due    time.Time // closed loop: when the sender asked for it; open loop: its schedule slot
	given  time.Time // when the generator or dispatcher handed it over
	sent   time.Time
	done   time.Time
	status int
	view   view
	// inner is the gateway → shard round trip (traced replicated runs).
	inner window
}

// view is the part of a service.View answer the benchmark reads. Leaving
// out the per-session strings keeps the client's bookkeeping, which
// shares a heap (and so the garbage collector's work) with the daemon
// under test, small.
type view struct {
	State         string  `json:"state"`
	Outcome       string  `json:"outcome"`
	Unlocked      bool    `json:"unlocked"`
	Error         string  `json:"error"`
	BER           float64 `json:"ber"`
	EbN0dB        float64 `json:"ebn0_db"`
	UnlockDelayMS float64 `json:"unlock_delay_ms"`
	WallMS        float64 `json:"wall_ms"`
}

// failed reports whether the request counts as a failure: any non-200
// answer (429 and 503 included; there are no retries) or a session that
// ended in an error.
func (o *observation) failed() bool {
	return o.status != http.StatusOK || o.view.State != "done"
}

func (o *observation) rttMS() float64 { return ms(o.done.Sub(o.sent)) }

// window is a closed time interval.
type window struct{ start, end time.Time }

// traffic sends requests to one stack from a fixed set of senders.
type traffic struct {
	base    string
	client  *http.Client
	gen     *generator
	senders int
	proxy   *proxyTimer // nil unless the gateway's shard calls are timed
	tr      *tracer     // nil in untraced runs
	obs     [][]*observation
}

func newTraffic(base string, client *http.Client, gen *generator, senders int, proxy *proxyTimer, tr *tracer) *traffic {
	return &traffic{base: base, client: client, gen: gen, senders: senders, proxy: proxy, tr: tr,
		obs: make([][]*observation, senders)}
}

// closed runs a closed loop, one request in flight per sender, until the
// deadline; requests in flight at the deadline finish.
func (tf *traffic) closed(phase int, until time.Time) {
	tf.closedWhile(phase, func() bool { return time.Now().Before(until) })
}

// closedCount runs a closed loop until n requests have been sent.
func (tf *traffic) closedCount(phase int, n int64) {
	var sent atomic.Int64
	tf.closedWhile(phase, func() bool { return sent.Add(1) <= n })
}

func (tf *traffic) closedWhile(phase int, more func() bool) {
	var wg sync.WaitGroup
	for k := 0; k < tf.senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for more() {
				due := time.Now()
				r := tf.gen.nextFor(k)
				tf.send(k, r, phase, due, time.Now())
			}
		}(k)
	}
	wg.Wait()
}

// step is one rate of the open-loop ladder.
type step struct {
	rate     float64
	duration time.Duration
}

// open runs an open loop: one dispatcher hands each request to its
// device's sender at the request's scheduled time, whether or not the
// sender is still busy, so a stall delays every later request of that
// sender. Steps are separated by idle gaps. It returns when every
// dispatched request has finished.
func (tf *traffic) open(steps []step, gap time.Duration) {
	type item struct {
		r          request
		phase      int
		due, given time.Time
	}
	total := 0
	for _, s := range steps {
		total += int(s.rate * s.duration.Seconds())
	}
	queues := make([]chan item, tf.senders)
	var wg sync.WaitGroup
	for k := range queues {
		// Sized to the whole schedule so the dispatcher never blocks on a
		// backlogged sender: the backlog is what the run measures.
		queues[k] = make(chan item, total)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for it := range queues[k] {
				tf.send(k, it.r, it.phase, it.due, it.given)
			}
		}(k)
	}
	at := time.Now()
	for i, s := range steps {
		n := int(s.rate * s.duration.Seconds())
		interval := time.Duration(float64(time.Second) / s.rate)
		for j := 0; j < n; j++ {
			due := at.Add(time.Duration(j) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			r := tf.gen.nextAny()
			queues[r.device%tf.senders] <- item{r: r, phase: phaseWindow + i, due: due, given: time.Now()}
		}
		at = at.Add(s.duration + gap)
		if i < len(steps)-1 {
			time.Sleep(time.Until(at))
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// send makes one synchronous POST /v1/unlock and records what came back.
func (tf *traffic) send(k int, r request, phase int, due, given time.Time) {
	o := &observation{request: r, phase: phase, due: due, given: given}
	body, _ := json.Marshal(struct {
		Scenario string `json:"scenario"`
		Device   int    `json:"device"`
	}{r.scenario, r.device}) // cannot fail: a string and an int
	o.sent = time.Now()
	resp, err := tf.client.Post(tf.base+"/v1/unlock", "application/json", bytes.NewReader(body))
	if err == nil {
		o.status = resp.StatusCode
		if resp.StatusCode == http.StatusOK {
			if json.NewDecoder(resp.Body).Decode(&o.view) != nil {
				o.status = 0
			}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	o.done = time.Now()
	if tf.proxy != nil {
		o.inner = tf.proxy.take(r.device)
	}
	tf.obs[k] = append(tf.obs[k], o)
	tf.traceRequest(o)
}

// traceRequest records bench.request (due → done) → http.roundtrip →
// [cluster.proxy →] service.session, the session anchored at the end of
// the innermost round trip and as long as the daemon's own wall_ms.
func (tf *traffic) traceRequest(o *observation) {
	if tf.tr == nil {
		return
	}
	root := tf.tr.add(o.idx, 0, "bench.request", o.due, o.done)
	parent := tf.tr.add(o.idx, root, "http.roundtrip", o.sent, o.done)
	inner := window{o.sent, o.done}
	if !o.inner.start.IsZero() {
		parent = tf.tr.add(o.idx, parent, "cluster.proxy", o.inner.start, o.inner.end)
		inner = o.inner
	}
	if o.status == http.StatusOK {
		start := inner.end.Add(-time.Duration(o.view.WallMS * float64(time.Millisecond)))
		if start.Before(inner.start) {
			start = inner.start
		}
		tf.tr.add(o.idx, parent, "service.session", start, inner.end)
	}
}

// observations returns every recorded observation in stream order.
func (tf *traffic) observations() []*observation {
	var all []*observation
	for _, o := range tf.obs {
		all = append(all, o...)
	}
	sortByIdx(all)
	return all
}

// proxyTimer is the gateway's shard transport in traced runs: it times
// each proxied POST /v1/unlock. Each device has at most one request in
// flight (its sender waits for the answer), so the device number pairs
// a proxied call with the client request that caused it.
type proxyTimer struct {
	base http.RoundTripper
	mu   sync.Mutex
	last map[int]window
}

func newProxyTimer(base http.RoundTripper) *proxyTimer {
	return &proxyTimer{base: base, last: make(map[int]window)}
}

// RoundTrip implements http.RoundTripper.
func (p *proxyTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/unlock" || req.GetBody == nil {
		return p.base.RoundTrip(req)
	}
	var body struct {
		Device int `json:"device"`
	}
	if rc, err := req.GetBody(); err == nil {
		_ = json.NewDecoder(rc).Decode(&body) // a body the gateway built itself
		rc.Close()
	}
	start := time.Now()
	resp, err := p.base.RoundTrip(req)
	end := time.Now()
	p.mu.Lock()
	p.last[body.Device] = window{start, end}
	p.mu.Unlock()
	return resp, err
}

// take returns and forgets the device's last proxied round trip.
func (p *proxyTimer) take(device int) window {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.last[device]
	delete(p.last, device)
	return w
}
