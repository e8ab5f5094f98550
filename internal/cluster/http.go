package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Client-facing HTTP surface: the gateway serves the same API shape as a
// single wearlockd, so loadgen and clients work unchanged against a
// cluster. Session IDs are namespaced "<shard>.<id>" on the way out and
// routed back on lookup. Backpressure is passed through verbatim — a
// shard's 429 or 503 with its Retry-After header reaches the client
// untouched, and gateway-side failures (unreachable shard, mid-handoff
// routing churn) degrade to 503 + Retry-After, never a dropped request.

type gwError struct {
	Error string `json:"error"`
}

// Handler returns the gateway API:
//
//	POST /v1/unlock              proxy to the owning shard (device picked
//	                             round-robin across the fleet when unpinned)
//	GET  /v1/sessions/{id}       routed by the "<shard>." ID prefix
//	GET  /healthz                per-shard health fan-in
//	GET  /readyz                 ready only when every shard is ready
//	GET  /metrics                gateway metrics + shard metrics with shard label
//	GET  /cluster/v1/topology    epoch, membership, device assignments
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/unlock", g.handleUnlock)
	mux.HandleFunc("GET /v1/sessions/{id}", g.handleSession)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /readyz", g.handleReady)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /cluster/v1/topology", g.handleTopology)
	mux.HandleFunc("POST /cluster/v1/shards", g.handleAddShard)
	return mux
}

// addShardBody is the POST /cluster/v1/shards admin request: join a new
// shard and rebalance, live, via snapshot-shipping handoff.
type addShardBody struct {
	Name    string `json:"name"`
	BaseURL string `json:"base_url"`
}

func (g *Gateway) handleAddShard(w http.ResponseWriter, r *http.Request) {
	var req addShardBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, gwError{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Name == "" || req.BaseURL == "" {
		writeJSON(w, http.StatusBadRequest, gwError{Error: "name and base_url are required"})
		return
	}
	reports, err := g.AddShard(r.Context(), ShardConfig{Name: req.Name, BaseURL: req.BaseURL})
	if err != nil {
		writeJSON(w, http.StatusConflict, gwError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"handoffs": reports,
		"topology": g.Topology(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// unavailable answers 503 with a Retry-After — the no-request-dropped
// guarantee's fallback when a shard cannot be reached.
func unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, gwError{Error: msg})
}

func (g *Gateway) handleUnlock(w http.ResponseWriter, r *http.Request) {
	// The gateway parses the body only to resolve and pin the device
	// before forwarding it.
	var req UnlockRequest
	if r.Body != nil && r.ContentLength != 0 {
		if err := ReadUnlockRequest(http.MaxBytesReader(w, r.Body, MaxUnlockBody), r.ContentLength, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, gwError{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
	}
	device := -1
	if req.Device != nil {
		device = *req.Device
	}
	if device >= g.cfg.TotalDevices {
		writeJSON(w, http.StatusBadRequest, gwError{
			Error: fmt.Sprintf("unknown device %d (cluster fleet size %d)", device, g.cfg.TotalDevices)})
		return
	}
	if device < 0 {
		// The gateway owns global round-robin: shards only round-robin
		// within their own range, which would skew load under uneven
		// ownership.
		device = int(g.nextDev.Add(1) % uint64(g.cfg.TotalDevices))
	}
	req.Device = &device

	shard := g.shardFor(device)
	resp, err := g.relayUnlock(r.Context(), shard, &req)
	if err != nil {
		g.m.errors.Inc()
		g.m.proxied.With("503").Inc()
		unavailable(w, fmt.Sprintf("shard %s unreachable: %v", shard, err))
		return
	}
	// The body is the stream's until it is back in the pool.
	defer func() { resp.release() }()
	if resp.status == http.StatusMisdirectedRequest {
		// Ownership race: the topology moved between resolve and dispatch.
		// Re-resolve once against the current routing and retry.
		g.m.reroutes.Inc()
		if cur := g.shardFor(device); cur != shard {
			resp.release()
			resp, err = g.relayUnlock(r.Context(), cur, &req)
			if err != nil {
				g.m.errors.Inc()
				g.m.proxied.With("503").Inc()
				unavailable(w, fmt.Sprintf("shard %s unreachable: %v", cur, err))
				return
			}
			shard = cur
		}
		if resp.status == http.StatusMisdirectedRequest {
			g.m.proxied.With("503").Inc()
			unavailable(w, ErrMigrating.Error())
			return
		}
	}
	g.m.proxied.With(statusLabel(resp.status / 100 * 100)).Inc()
	if resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable {
		g.m.passthru.With(statusLabel(resp.status)).Inc()
	}
	g.writeProxied(w, shard, resp)
}

func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	shard, id, ok := strings.Cut(r.PathValue("id"), ".")
	if !ok || g.handle(shard) == nil {
		writeJSON(w, http.StatusNotFound, gwError{Error: "unknown session (cluster session IDs are \"<shard>.<id>\")"})
		return
	}
	resp, err := g.forward(r.Context(), shard, "/v1/sessions/"+id)
	if err != nil {
		g.m.errors.Inc()
		unavailable(w, fmt.Sprintf("shard %s unreachable: %v", shard, err))
		return
	}
	g.writeProxied(w, shard, resp)
}

// statusLabel is strconv.Itoa(code), without a new string for the
// codes the gateway counts on every relay.
func statusLabel(code int) string {
	switch code {
	case 200:
		return "200"
	case 400:
		return "400"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	return strconv.Itoa(code)
}

// proxied is one shard response held for relay. A relayed unlock's body
// is the bytes its stream decoded the answer into: lease holds the
// stream until release pools it, after the body is written out.
type proxied struct {
	status     int
	retryAfter string
	body       []byte
	lease      streamLease
}

// release gives back the stream a relayed answer came on; a no-op
// otherwise, and once released.
func (p *proxied) release() {
	if p.lease.us != nil {
		p.lease.h.putStream(p.lease.us, p.lease.gen)
		p.lease = streamLease{}
	}
}

// streamLease is an unlock stream taken from h's pool at generation gen.
type streamLease struct {
	h   *shardHandle
	us  *unlockStream
	gen uint64
}

// relayUnlock carries one unlock to a shard on one of its pooled unlock
// streams and captures the answer, within the client's per-call Timeout;
// cancelling ctx abandons the stream. A frame once written is never sent
// again: any failure after the write closes the stream and fails the
// call, so a session runs at most once. The answer's body is the
// stream's: the caller releases the answer once it has written it out.
func (g *Gateway) relayUnlock(ctx context.Context, shard string, req *UnlockRequest) (proxied, error) {
	h := g.handle(shard)
	if h == nil {
		return proxied{}, fmt.Errorf("no shard %q", shard)
	}
	start := time.Now()
	deadline, _ := ctx.Deadline()
	if t := g.client.Timeout; t > 0 && (deadline.IsZero() || start.Add(t).Before(deadline)) {
		deadline = start.Add(t)
	}
	us, gen, err := g.takeStream(ctx, deadline, h)
	if err != nil {
		return proxied{}, err
	}
	ack, err := us.relay(ctx, deadline, req)
	if err != nil {
		us.close()
		return proxied{}, err
	}
	h.hop.Observe(time.Since(start).Seconds())
	return proxied{status: ack.Status, retryAfter: ack.RetryAfter, body: ack.Body,
		lease: streamLease{h: h, us: us, gen: gen}}, nil
}

// unlockStream is one pooled unlock stream with what its exchanges
// reuse: the answer each one decodes into, and the goroutine that runs
// them while the relaying handler watches its request's context
// (DESIGN.md §13.2). The goroutine lives as long as the stream.
type unlockStream struct {
	st  *Stream
	ack UnlockResponse
	// run hands the exchanger the request to send; done hands back the
	// exchange's error. The exchanger ends when run is closed.
	run      chan *UnlockRequest
	done     chan error
	deadline time.Time
	closed   bool
}

func newUnlockStream(st *Stream) *unlockStream {
	us := &unlockStream{st: st, run: make(chan *UnlockRequest), done: make(chan error)}
	go us.exchanger()
	return us
}

func (us *unlockStream) exchanger() {
	for req := range us.run {
		m, err := us.st.Exchange(us.deadline, MsgUnlock, req, &us.ack)
		if err == nil && m.Payload != &us.ack {
			if m.Type == MsgUnlockAck {
				// A non-canonical answer decoded into a payload of its own.
				us.ack = *m.Payload.(*UnlockResponse)
			} else {
				err = fmt.Errorf("unexpected %s frame", m.Type)
			}
		}
		us.done <- err
	}
}

// relay runs one exchange by deadline. If ctx ends first, it aborts the
// exchange, waits for the exchanger to give the stream back and fails
// with ctx's error; the caller then closes the stream.
func (us *unlockStream) relay(ctx context.Context, deadline time.Time, req *UnlockRequest) (*UnlockResponse, error) {
	us.deadline = deadline
	us.run <- req
	var err error
	select {
	case err = <-us.done:
	case <-ctx.Done():
		us.st.Abort()
		<-us.done
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return &us.ack, nil
}

// close hangs the stream up and ends its exchanger. Only the stream's
// holder calls it, once it is done with the stream; later calls are
// no-ops.
func (us *unlockStream) close() {
	if !us.closed {
		us.closed = true
		close(us.run)
		us.st.Close()
	}
}

// maxIdleStreams caps the idle unlock streams pooled per shard; a stream
// coming back to a full pool is closed.
const maxIdleStreams = 64

// takeStream hands out an idle unlock stream to h, or dials a fresh one.
// An idle stream the shard has hung up is closed unused, so a request is
// never written to it.
func (g *Gateway) takeStream(ctx context.Context, deadline time.Time, h *shardHandle) (*unlockStream, uint64, error) {
	h.mu.Lock()
	for n := len(h.idle); n > 0; n = len(h.idle) {
		us := h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		if us.st.Alive() {
			gen := h.streamGen
			h.mu.Unlock()
			return us, gen, nil
		}
		us.close()
	}
	base, gen := h.baseURL, h.streamGen
	h.mu.Unlock()
	g.m.dials.Inc()
	u, err := url.Parse(strings.TrimSuffix(base, "/") + UnlockStreamPath)
	if err != nil {
		return nil, 0, err
	}
	st, err := DialStream(ctx, deadline, u, UnlockStreamProto)
	if err != nil {
		return nil, 0, err
	}
	return newUnlockStream(st), gen, nil
}

// putStream pools a stream after a whole exchange, unless h was
// re-pointed or closed since it was taken or the pool is full.
func (h *shardHandle) putStream(us *unlockStream, gen uint64) {
	h.mu.Lock()
	if gen == h.streamGen && !h.closed && len(h.idle) < maxIdleStreams {
		h.idle = append(h.idle, us)
		us = nil
	}
	h.mu.Unlock()
	if us != nil {
		us.close()
	}
}

// repoint routes h at base and drops its pooled streams.
func (h *shardHandle) repoint(base string) {
	h.dropStreams(func() { h.baseURL = base })
}

// dropStreams applies change and bumps streamGen under h.mu, then closes
// the pooled streams; streams in use are closed when they come back.
func (h *shardHandle) dropStreams(change func()) {
	h.mu.Lock()
	change()
	idle := h.idle
	h.idle = nil
	h.streamGen++
	h.mu.Unlock()
	for _, us := range idle {
		us.close()
	}
}

// Close hangs up every shard's pooled unlock streams, which would
// otherwise hold a goroutine and a connection on both ends until the
// shard shuts down. A stream in use is closed when its exchange ends,
// and none is pooled afterwards. Call it once the gateway's HTTP server
// has stopped.
func (g *Gateway) Close() {
	g.mu.RLock()
	handles := make([]*shardHandle, 0, len(g.shards))
	for _, h := range g.shards {
		handles = append(handles, h)
	}
	g.mu.RUnlock()
	for _, h := range handles {
		h.dropStreams(func() { h.closed = true })
	}
}

// forward issues one GET to a shard and captures the response.
func (g *Gateway) forward(ctx context.Context, shard, path string) (proxied, error) {
	h := g.handle(shard)
	if h == nil {
		return proxied{}, fmt.Errorf("no shard %q", shard)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url()+path, nil)
	if err != nil {
		return proxied{}, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return proxied{}, err
	}
	defer resp.Body.Close()
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= maxProxiedBody {
		// The shard states the size: one exact read.
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxProxiedBody))
	}
	if err != nil {
		return proxied{}, err
	}
	return proxied{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: data}, nil
}

// maxProxiedBody bounds a relayed shard response.
const maxProxiedBody = 1 << 20

// writeProxied relays a shard response, rewriting the session ID to its
// cluster-namespaced form on success bodies. The response always carries
// its Content-Length.
func (g *Gateway) writeProxied(w http.ResponseWriter, shard string, resp proxied) {
	h := w.Header()
	if resp.retryAfter != "" {
		h.Set("Retry-After", resp.retryAfter)
	}
	h["Content-Type"] = jsonContentType
	body := resp.body
	if resp.status == http.StatusOK || resp.status == http.StatusAccepted {
		if at := idSpliceAt(body, shard); at > 0 {
			h.Set("Content-Length", strconv.Itoa(len(body)+len(shard)+1))
			w.WriteHeader(resp.status)
			_, _ = w.Write(body[:at])
			_, _ = io.WriteString(w, shard)
			_, _ = io.WriteString(w, ".")
			_, _ = w.Write(body[at:])
			return
		}
		if rewritten, ok := namespaceSessionID(body, shard); ok {
			body = rewritten
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.status)
	_, _ = w.Write(body)
}

// jsonContentType is the Content-Type value of every relayed answer,
// one slice shared by all of them: net/http only reads it.
var jsonContentType = []string{"application/json"}

// viewPrefix opens every service.View body a shard writes: the session
// ID is its first field.
var viewPrefix = []byte(`{"id":"`)

// idSpliceAt returns the offset in body where "<shard>." can be spliced
// to namespace the session ID without decoding, or -1 when the body
// needs namespaceSessionID. The splice applies only to a valid JSON
// object opening with a non-empty "id" string whose remainder cannot
// hold a second "id" key (a literal one, or one spelled with \u
// escapes), and only for a shard name that needs no JSON escaping; the
// spliced body then decodes to exactly what namespaceSessionID writes.
func idSpliceAt(body []byte, shard string) int {
	at := len(viewPrefix)
	if !bytes.HasPrefix(body, viewPrefix) || len(body) <= at || body[at] == '"' {
		return -1
	}
	for i := 0; i < len(shard); i++ {
		if c := shard[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return -1
		}
	}
	rest := body[at:]
	if bytes.Contains(rest, []byte(`"id"`)) || bytes.Contains(rest, []byte(`\u`)) || !json.Valid(body) {
		return -1
	}
	return at
}

// namespaceSessionID rewrites {"id":"s-..."} to {"id":"<shard>.s-..."}
// by decoding the body into a map and re-encoding it, which sorts the
// keys. It is the fallback for bodies idSpliceAt refuses. Numbers pass
// through as their literals, so every valid JSON object with a non-empty
// string ID is rewritten — the same bodies the splice accepts and more.
func namespaceSessionID(body []byte, shard string) ([]byte, bool) {
	if !json.Valid(body) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var view map[string]any
	if err := dec.Decode(&view); err != nil {
		return nil, false
	}
	id, ok := view["id"].(string)
	if !ok || id == "" {
		return nil, false
	}
	view["id"] = shard + "." + id
	out, err := json.Marshal(view)
	if err != nil {
		return nil, false
	}
	return append(out, '\n'), true
}

// shardProbe is one shard's /readyz or /healthz result.
type shardProbe struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// probeShards fans a GET across every shard concurrently.
func (g *Gateway) probeShards(ctx context.Context, path string) map[string]shardProbe {
	g.mu.RLock()
	handles := make(map[string]*shardHandle, len(g.shards))
	for name, h := range g.shards {
		handles[name] = h
	}
	g.mu.RUnlock()
	type result struct {
		name  string
		probe shardProbe
	}
	ch := make(chan result, len(handles))
	for name, h := range handles {
		go func(name string, h *shardHandle) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url()+path, nil)
			if err != nil {
				ch <- result{name, shardProbe{Error: err.Error()}}
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				ch <- result{name, shardProbe{Error: err.Error()}}
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if !json.Valid(body) {
				body = nil
			}
			ch <- result{name, shardProbe{Status: resp.StatusCode, Body: body}}
		}(name, h)
	}
	out := make(map[string]shardProbe, len(handles))
	for range handles {
		r := <-ch
		out[r.name] = r.probe
	}
	return out
}

// ShardReadiness is one shard's row in the gateway /readyz fan-in. The
// state names the actual failure mode — a shard mid-WAL-replay, a shard
// whose recovery failed terminally, and a shard that is simply not
// answering are different operational situations and are reported as
// such, never collapsed into one "degraded".
type ShardReadiness struct {
	// State: "ok", "recovering" (startup replay running), "failed"
	// (terminal recovery error), "following" (routing points at an
	// unpromoted standby), "unreachable" (probe did not complete), or
	// "degraded" (answered non-OK without a recognizable status).
	State string `json:"state"`
	// Reason is the human-readable cause for any non-ok state.
	Reason string `json:"reason,omitempty"`
	// Misses is the consecutive heartbeat-miss count; Suspect marks a
	// shard missing beats but still under the failover threshold.
	Misses  int  `json:"misses,omitempty"`
	Suspect bool `json:"suspect,omitempty"`
	// Unhealthy mirrors the heartbeat verdict (threshold crossed).
	Unhealthy bool `json:"unhealthy,omitempty"`
	// Failovers counts standby promotions into this shard's slot.
	Failovers int `json:"failovers,omitempty"`
	// Body is the shard's own /readyz response, when one arrived.
	Body json.RawMessage `json:"body,omitempty"`
}

// classifyReadiness maps one shard probe to its readiness row.
func classifyReadiness(p shardProbe) ShardReadiness {
	if p.Error != "" {
		return ShardReadiness{State: "unreachable", Reason: p.Error}
	}
	var body struct {
		Status string `json:"status"`
		Error  string `json:"error,omitempty"`
	}
	_ = json.Unmarshal(p.Body, &body)
	switch body.Status {
	case "ok":
		return ShardReadiness{State: "ok", Body: p.Body}
	case "recovering":
		return ShardReadiness{State: "recovering",
			Reason: "startup replay of the durable store is still running", Body: p.Body}
	case "failed":
		reason := "recovery hit a terminal error"
		if body.Error != "" {
			reason = body.Error
		}
		return ShardReadiness{State: "failed", Reason: reason, Body: p.Body}
	case "following":
		return ShardReadiness{State: "following",
			Reason: "warm standby awaiting promotion; unlock traffic refused", Body: p.Body}
	default:
		return ShardReadiness{State: "degraded",
			Reason: fmt.Sprintf("shard answered HTTP %d without a recognizable status", p.Status),
			Body:   p.Body}
	}
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	probes := g.probeShards(r.Context(), "/readyz")
	shards := make(map[string]ShardReadiness, len(probes))
	ready := true
	for name, p := range probes {
		row := classifyReadiness(p)
		if h := g.handle(name); h != nil {
			h.mu.Lock()
			row.Misses = h.misses
			row.Suspect = h.misses > 0 && !h.unhealthy
			row.Unhealthy = h.unhealthy
			row.Failovers = h.failovers
			h.mu.Unlock()
		}
		if row.State != "ok" {
			ready = false
		}
		shards[name] = row
	}
	status := "ok"
	code := http.StatusOK
	if !ready {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"status": status, "shards": shards})
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	probes := g.probeShards(r.Context(), "/healthz")
	healthy := true
	for _, p := range probes {
		if p.Error != "" || p.Status != http.StatusOK {
			healthy = false
		}
	}
	top := g.Topology()
	status := "ok"
	code := http.StatusOK
	if !healthy {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"epoch":   top.Epoch,
		"devices": top.Devices,
		"shards":  probes,
	})
}

func (g *Gateway) handleTopology(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, g.Topology())
}

// handleMetrics renders the gateway's own registry followed by every
// shard's exposition with the shard label injected.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	handles := make(map[string]*shardHandle, len(g.shards))
	for name, h := range g.shards {
		handles[name] = h
	}
	g.mu.RUnlock()

	byShard := make(map[string]string, len(handles))
	type result struct{ name, text string }
	ch := make(chan result, len(handles))
	for name, h := range handles {
		go func(name string, h *shardHandle) {
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url()+"/metrics", nil)
			if err != nil {
				ch <- result{name, ""}
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				ch <- result{name, ""}
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			ch <- result{name, string(body)}
		}(name, h)
	}
	for range handles {
		res := <-ch
		if res.text != "" {
			byShard[res.name] = res.text
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.reg.WritePrometheus(w)
	io.WriteString(w, AggregateMetrics(byShard))
	// Shards that failed to scrape are visible by absence; name them so a
	// scrape gap is diagnosable from the exposition itself.
	var missing []string
	for name := range handles {
		if _, ok := byShard[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "# shard %s: metrics scrape failed\n", name)
	}
}
