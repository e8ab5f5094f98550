package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// testBenchConfig keeps integration runs quick: small fleet, light
// pacing so sessions still overlap the handoff window.
func testBenchConfig() benchConfig {
	return benchConfig{Devices: 16, Workers: 2, Queue: 16, Pace: 0.1, Seed: 42}
}

// TestClusterUnlockThroughGateway boots a 2-shard cluster and checks the
// client-facing contract: unlocks succeed, session IDs come back
// namespaced and resolve through GET /v1/sessions/{id}, both shards see
// traffic, and the aggregated /metrics carries shard-labeled samples
// plus the gateway build info.
func TestClusterUnlockThroughGateway(t *testing.T) {
	tc, err := bootCluster(2, testBenchConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	client := &http.Client{Timeout: 60 * time.Second}

	shardsSeen := map[string]bool{}
	for i := 0; i < 8; i++ {
		resp, err := client.Post(tc.base+"/v1/unlock", "application/json",
			bytes.NewReader([]byte(`{"scenario":"default"}`)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unlock %d answered %d: %s", i, resp.StatusCode, body)
		}
		var view struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		shard, _, ok := strings.Cut(view.ID, ".")
		if !ok {
			t.Fatalf("session ID %q not cluster-namespaced", view.ID)
		}
		shardsSeen[shard] = true

		poll, err := client.Get(tc.base + "/v1/sessions/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		pollBody, _ := io.ReadAll(poll.Body)
		poll.Body.Close()
		if poll.StatusCode != http.StatusOK {
			t.Fatalf("session poll answered %d: %s", poll.StatusCode, pollBody)
		}
	}
	if len(shardsSeen) != 2 {
		t.Errorf("round-robin reached shards %v, want both", shardsSeen)
	}

	ready, err := client.Get(tc.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Errorf("/readyz answered %d", ready.StatusCode)
	}

	metrics, err := client.Get(tc.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	for _, want := range []string{
		"wearlock_gateway_build_info", "wearlock_gateway_proxied_total",
		`wearlockd_build_info{shard="s0"`, `shard="s1"`,
	} {
		if !strings.Contains(string(mBody), want) {
			t.Errorf("aggregated metrics missing %q", want)
		}
	}
}

// TestClusterHandoffUnderLoad is the race-enabled chaos drill: the
// bench's live-handoff drill, shortened. A third shard joins a 2-shard
// durable cluster while closed-loop clients hammer the gateway; the
// handoff must move a range, the safety oracle must find no counter
// regression and no accepted replay, no request may be dropped without
// a retryable answer, and every shard must own devices afterwards.
func TestClusterHandoffUnderLoad(t *testing.T) {
	dr, err := runDrill(testBenchConfig(), 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if dr.DevicesMoved == 0 || dr.Requests == 0 {
		t.Errorf("drill exercised nothing: %d devices moved under %d requests", dr.DevicesMoved, dr.Requests)
	}
	if dr.CounterRegressions != 0 || dr.AcceptedReplays != 0 || dr.Dropped != 0 {
		t.Errorf("%d counter regressions, %d accepted replays, %d dropped requests",
			dr.CounterRegressions, dr.AcceptedReplays, dr.Dropped)
	}
}

// TestClusterEphemeralPorts covers the -listen :0 discovery path end to
// end at the package level: every bootShard listener binds :0 and the
// cluster still assembles, proving nothing assumes fixed ports.
func TestClusterEphemeralPorts(t *testing.T) {
	tc, err := bootCluster(4, testBenchConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.close()
	top := tc.gw.Topology()
	seen := map[string]bool{}
	for _, sh := range top.Shards {
		if !strings.HasPrefix(sh.BaseURL, "http://127.0.0.1:") {
			t.Errorf("shard %s has unexpected base URL %s", sh.Name, sh.BaseURL)
		}
		if seen[sh.BaseURL] {
			t.Errorf("duplicate shard address %s", sh.BaseURL)
		}
		seen[sh.BaseURL] = true
	}
	if len(seen) != 4 {
		t.Errorf("%d distinct shard addresses, want 4", len(seen))
	}
	if fmt.Sprint(top.Devices) != "16" {
		t.Errorf("topology devices = %d, want 16", top.Devices)
	}
}
