package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
	"wearlock/internal/scenario/catalog"
)

func startTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	})
	return s, ts
}

func postUnlock(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	resp, err := http.Post(url+"/v1/unlock", "application/json", &buf)
	if err != nil {
		t.Fatalf("POST /v1/unlock: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// End-to-end: a synchronous unlock round trip over real HTTP against the
// real protocol stack, then the session re-fetched by ID, health checked,
// and the outcome visible in /metrics.
func TestHTTPEndToEndUnlock(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	_, ts := startTestServer(t, cfg)

	// The channel is stochastic (a decoded-but-wrong token is possible),
	// so allow a few attempts for an actual unlock.
	var view View
	unlocked := false
	for attempt := 0; attempt < 5 && !unlocked; attempt++ {
		resp, data := postUnlock(t, ts.URL, cluster.UnlockRequest{Scenario: "quiet"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("bad response JSON: %v (%s)", err, data)
		}
		if view.State != "done" {
			t.Fatalf("synchronous response state %q, want done", view.State)
		}
		unlocked = view.Unlocked
	}
	if !unlocked {
		t.Fatal("never unlocked over HTTP")
	}
	if view.Outcome != core.OutcomeUnlocked.String() && view.Outcome != core.OutcomeSkipUnlocked.String() {
		t.Errorf("outcome %q", view.Outcome)
	}
	if view.UnlockDelayMS <= 0 {
		t.Error("no simulated unlock delay reported")
	}

	// Session lookup by ID.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + view.ID)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	var fetched View
	if err := json.NewDecoder(resp.Body).Decode(&fetched); err != nil {
		t.Fatalf("decode session: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fetched.ID != view.ID || fetched.Outcome != view.Outcome {
		t.Errorf("session fetch: status %d id %s outcome %s", resp.StatusCode, fetched.ID, fetched.Outcome)
	}

	// Unknown session is a 404.
	resp, err = http.Get(ts.URL + "/v1/sessions/s-99999999")
	if err != nil {
		t.Fatalf("GET unknown session: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status %d, want 404", resp.StatusCode)
	}

	// Health reports a serving fleet.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Devices != cfg.Devices {
		t.Errorf("health %+v status %d", h, resp.StatusCode)
	}

	// Metrics carry the outcome counter.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "wearlockd_sessions_total{outcome=") {
		t.Errorf("metrics missing session counters:\n%s", text)
	}
	if !strings.Contains(string(text), "wearlockd_session_wall_seconds_bucket") {
		t.Error("metrics missing latency histogram")
	}
}

// Asynchronous mode: 202 with a queued/running session, then poll to the
// terminal state.
func TestHTTPAsyncUnlock(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	_, ts := startTestServer(t, cfg)
	wait := false
	resp, data := postUnlock(t, ts.URL, cluster.UnlockRequest{Scenario: "quiet", Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d: %s", resp.StatusCode, data)
	}
	var view View
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatalf("bad async JSON: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + view.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("poll decode: %v", err)
		}
		resp.Body.Close()
		if view.State == "done" || view.State == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != "done" {
		t.Fatalf("async session state %q, want done", view.State)
	}
}

// HTTP admission control: a saturated daemon answers 429 with
// Retry-After, and a draining daemon answers 503 on unlock and healthz.
func TestHTTPBackpressureAndDrain(t *testing.T) {
	s, release := blockableService(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Shutdown(context.Background())
	}()

	// Saturate: 2 workers + 2 queue slots.
	wait := false
	accepted := 0
	deadline := time.Now().Add(5 * time.Second)
	for accepted < 4 && time.Now().Before(deadline) {
		resp, _ := postUnlock(t, ts.URL, cluster.UnlockRequest{Wait: &wait})
		if resp.StatusCode == http.StatusAccepted {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d sessions, want 4", accepted)
	}
	// Capacity is gone exactly when the queue holds 2: workers may still
	// be between queue pulls, so poll for the saturated answer.
	var resp *http.Response
	var data []byte
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, data = postUnlock(t, ts.URL, cluster.UnlockRequest{Wait: &wait})
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if resp.StatusCode == http.StatusAccepted {
			t.Fatalf("daemon over-admitted: %s", data)
		}
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Drain: unlocks get 503, healthz flips to draining.
	go func() { _ = s.Drain(context.Background()) }()
	deadline = time.Now().Add(5 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, data = postUnlock(t, ts.URL, cluster.UnlockRequest{Wait: &wait})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d: %s", resp.StatusCode, data)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("draining health status %d %q", hr.StatusCode, h.Status)
	}
	close(release)
}

// Malformed bodies and unknown scenarios are 400s.
func TestHTTPBadRequests(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/unlock", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
	resp, data := postUnlock(t, ts.URL, cluster.UnlockRequest{Scenario: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown scenario status %d: %s", resp.StatusCode, data)
	}
	dev := 10_000
	resp, data = postUnlock(t, ts.URL, cluster.UnlockRequest{Device: &dev})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad device status %d: %s", resp.StatusCode, data)
	}
}

// A body over cluster.MaxUnlockBody is refused with 400, as the gateway
// refuses it, whether the client states its length or streams it
// chunked, and the daemon goes on serving.
func TestHTTPOversizeBodyRefused(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	body := `{"scenario":"` + strings.Repeat("x", 2<<20) + `"}`
	for name, rd := range map[string]io.Reader{
		"sized":   strings.NewReader(body),
		"chunked": io.MultiReader(strings.NewReader(body)),
	} {
		resp, err := http.Post(ts.URL+"/v1/unlock", "application/json", rd)
		if err != nil {
			t.Fatalf("%s: POST: %v", name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "bad request body") {
			t.Errorf("%s: oversize body answered %d: %.200s", name, resp.StatusCode, data)
		}
		resp, data = postUnlock(t, ts.URL, cluster.UnlockRequest{Scenario: "quiet"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: next request answered %d: %s", name, resp.StatusCode, data)
		}
	}
}

func TestParseMix(t *testing.T) {
	scenarios := catalog.ServiceScenarios()
	m, err := ParseMix("default=3,samehand=1", scenarios)
	if err != nil {
		t.Fatalf("ParseMix: %v", err)
	}
	counts := map[string]int{}
	for i := uint64(0); i < 40; i++ {
		counts[m.Pick(i)]++
	}
	if counts["default"] != 30 || counts["samehand"] != 10 {
		t.Errorf("mix counts %v, want 30/10", counts)
	}
	if _, err := ParseMix("nope=1", scenarios); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ParseMix("default=0", scenarios); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := ParseMix("", scenarios); err == nil {
		t.Error("empty mix accepted")
	}
	if m, err := ParseMix("quiet", scenarios); err != nil || m.Pick(5) != "quiet" {
		t.Errorf("bare name mix: %v", err)
	}
}

// Per-scenario physical validity now lives with the registry
// (internal/scenario/catalog); here we only check the name listing the
// HTTP catalog endpoint serves.
func TestScenarioNamesSorted(t *testing.T) {
	names := ScenarioNames(catalog.ServiceScenarios())
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names unsorted at %d: %v", i, names)
		}
	}
	if fmt.Sprint(names) == "" || len(names) == 0 {
		t.Error("empty catalog")
	}
}
