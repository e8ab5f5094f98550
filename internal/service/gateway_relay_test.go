package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"wearlock/internal/cluster"
)

// getBody fetches one response and checks it arrived with an exact
// Content-Length, not chunked.
func getBody(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(data)) {
		t.Fatalf("%s %s: Transfer-Encoding %v, Content-Length %d for %d bytes",
			method, url, resp.TransferEncoding, resp.ContentLength, len(data))
	}
	return resp.StatusCode, data
}

func decodeView(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %q: %v", data, err)
	}
	return v
}

// The gateway relays real session views — the POST /v1/unlock answer,
// the 202 of an unawaited unlock and GET /v1/sessions/{id} — as the
// shard wrote them with "<shard>." spliced into the ID: same field
// order, same values, an exact Content-Length.
func TestShardGatewayRelaysViews(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	shard := httptest.NewServer(s.Handler())
	defer shard.Close()
	g, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:       []cluster.ShardConfig{{Name: "s0", BaseURL: shard.URL}},
		TotalDevices: s.cfg.Devices,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// splicedEqual checks the relayed body is the shard's with "s0."
	// spliced in front of the session ID.
	splicedEqual := func(relayed, direct []byte) {
		t.Helper()
		const prefix = `{"id":"`
		want := append([]byte(prefix+"s0."), direct[len(prefix):]...)
		if !bytes.Equal(relayed, want) {
			t.Fatalf("relayed view differs from the shard's:\n got %s\nwant %s", relayed, want)
		}
		rv, dv := decodeView(t, relayed), decodeView(t, direct)
		dv["id"] = "s0." + dv["id"].(string)
		if !reflect.DeepEqual(rv, dv) {
			t.Fatalf("relayed view decodes to %v, want %v", rv, dv)
		}
	}

	var ids []string
	for _, scenario := range []string{"", "attacker", "out-of-range"} {
		code, relayed := getBody(t, http.MethodPost, gw.URL+"/v1/unlock", `{"device":1,"scenario":"`+scenario+`"}`)
		if code != http.StatusOK {
			t.Fatalf("unlock %q answered %d: %s", scenario, code, relayed)
		}
		id := decodeView(t, relayed)["id"].(string)
		_, rawID, _ := strings.Cut(id, ".")
		_, direct := getBody(t, http.MethodGet, shard.URL+"/v1/sessions/"+rawID, "")
		splicedEqual(relayed, direct)
		ids = append(ids, id)
	}

	code, accepted := getBody(t, http.MethodPost, gw.URL+"/v1/unlock", `{"device":2,"wait":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("unawaited unlock answered %d: %s", code, accepted)
	}
	if !bytes.HasPrefix(accepted, []byte(`{"id":"s0.`)) {
		t.Fatalf("202 view not namespaced in place: %s", accepted)
	}
	ids = append(ids, decodeView(t, accepted)["id"].(string))

	for _, id := range ids {
		_, rawID, _ := strings.Cut(id, ".")
		sess, ok := s.Get(rawID)
		if !ok {
			t.Fatalf("session %s unknown to the shard", rawID)
		}
		if err := sess.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		code, relayed := getBody(t, http.MethodGet, gw.URL+"/v1/sessions/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s answered %d", id, code)
		}
		_, direct := getBody(t, http.MethodGet, shard.URL+"/v1/sessions/"+rawID, "")
		splicedEqual(relayed, direct)
	}

	// Error answers pass through untouched, still with a Content-Length.
	code, body := getBody(t, http.MethodPost, gw.URL+"/v1/unlock", `{"scenario":"no-such-scenario"}`)
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("unknown scenario answered %d: %s", code, body)
	}
}
