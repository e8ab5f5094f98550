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
	if resp.status == http.StatusMisdirectedRequest {
		// Ownership race: the topology moved between resolve and dispatch.
		// Re-resolve once against the current routing and retry.
		g.m.reroutes.Inc()
		if cur := g.shardFor(device); cur != shard {
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
	g.m.proxied.With(fmt.Sprintf("%d", resp.status/100*100)).Inc()
	if resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable {
		g.m.passthru.With(fmt.Sprintf("%d", resp.status)).Inc()
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

// proxied is one shard response held for relay.
type proxied struct {
	status     int
	retryAfter string
	body       []byte
}

// relayUnlock carries one unlock to a shard on one of its pooled unlock
// streams and captures the answer, within the client's per-call Timeout;
// cancelling ctx abandons the stream. A frame once written is never sent
// again: any failure after the write closes the stream and fails the
// call, so a session runs at most once.
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
	st, gen, err := g.takeStream(ctx, deadline, h)
	if err != nil {
		return proxied{}, err
	}
	stop := context.AfterFunc(ctx, st.Abort)
	m, err := st.Exchange(deadline, MsgUnlock, req)
	if !stop() && err == nil {
		err = ctx.Err() // the abort raced the answer
	}
	ack, ok := m.Payload.(*UnlockResponse)
	if err != nil || !ok {
		st.Close()
		if err == nil {
			err = fmt.Errorf("unexpected %s frame", m.Type)
		}
		return proxied{}, err
	}
	h.putStream(st, gen)
	h.hop.Observe(time.Since(start).Seconds())
	return proxied{status: ack.Status, retryAfter: ack.RetryAfter, body: ack.Body}, nil
}

// maxIdleStreams caps the idle unlock streams pooled per shard; a stream
// coming back to a full pool is closed.
const maxIdleStreams = 64

// takeStream hands out an idle unlock stream to h, or dials a fresh one.
// An idle stream the shard has hung up is closed unused, so a request is
// never written to it.
func (g *Gateway) takeStream(ctx context.Context, deadline time.Time, h *shardHandle) (*Stream, uint64, error) {
	h.mu.Lock()
	for n := len(h.idle); n > 0; n = len(h.idle) {
		st := h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		if st.Alive() {
			gen := h.streamGen
			h.mu.Unlock()
			return st, gen, nil
		}
		st.Close()
	}
	base, gen := h.baseURL, h.streamGen
	h.mu.Unlock()
	g.m.dials.Inc()
	u, err := url.Parse(strings.TrimSuffix(base, "/") + UnlockStreamPath)
	if err != nil {
		return nil, 0, err
	}
	st, err := DialStream(ctx, deadline, u, UnlockStreamProto)
	return st, gen, err
}

// putStream pools a stream after a whole exchange, unless h was
// re-pointed or closed since it was taken or the pool is full.
func (h *shardHandle) putStream(st *Stream, gen uint64) {
	h.mu.Lock()
	if gen == h.streamGen && !h.closed && len(h.idle) < maxIdleStreams {
		h.idle = append(h.idle, st)
		st = nil
	}
	h.mu.Unlock()
	if st != nil {
		st.Close()
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
	for _, st := range idle {
		st.Close()
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
	h.Set("Content-Type", "application/json")
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
