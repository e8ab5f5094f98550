package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wearlock/internal/cluster"
	"wearlock/internal/core"
)

// shardPost sends one framed wire message to a daemon handler and
// decodes the typed ack.
func shardPost[T any](t *testing.T, h http.Handler, path string, mt cluster.MsgType, payload any, ack cluster.MsgType) (*T, int) {
	t.Helper()
	data, err := cluster.Encode(mt, payload)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", cluster.WireContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out, err := cluster.DecodeAs[T](rec.Body.Bytes(), ack)
	if err != nil {
		return nil, rec.Code
	}
	return out, rec.Code
}

// TestShardStandaloneServesEverything pins the compatibility contract: a
// daemon that was never registered admits every device — shard mode is
// invisible until a gateway speaks up.
func TestShardStandaloneServesEverything(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	for id := 0; id < 4; id++ {
		if err := s.shardAdmit(id); err != nil {
			t.Fatalf("standalone daemon rejected device %d: %v", id, err)
		}
	}
	if s.shardID() != "standalone" {
		t.Errorf("shardID = %q, want standalone", s.shardID())
	}
}

// TestShardRegistrationOwnership registers a subset and checks admission
// splits into owned (admit), not-owned (421 signal), and post-fence
// (503 signal) classes.
func TestShardRegistrationOwnership(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	h := s.Handler()

	ack, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "standalone", Epoch: 1, TotalDevices: 4, Owned: []int{0, 1}},
		cluster.MsgRegisterAck)
	if code != http.StatusOK || ack == nil {
		t.Fatalf("register answered %d", code)
	}
	if ack.Devices != 4 || !ack.Ready {
		t.Errorf("register ack %+v", ack)
	}

	if err := s.shardAdmit(0); err != nil {
		t.Errorf("owned device rejected: %v", err)
	}
	if err := s.shardAdmit(2); !errors.Is(err, ErrNotOwned) {
		t.Errorf("unowned device error = %v, want ErrNotOwned", err)
	}
	s.shardFence([]int{1})
	if err := s.shardAdmit(1); !errors.Is(err, ErrFenced) {
		t.Errorf("fenced device error = %v, want ErrFenced", err)
	}
	// Re-registration clears every fence — the aborted-handoff unfence.
	_, code = shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "standalone", Epoch: 2, TotalDevices: 4, Owned: []int{0, 1}},
		cluster.MsgRegisterAck)
	if code != http.StatusOK {
		t.Fatalf("re-register answered %d", code)
	}
	if err := s.shardAdmit(1); err != nil {
		t.Errorf("fence survived re-registration: %v", err)
	}
}

// TestShardRegistrationRejections pins the 409 conflict cases: identity
// mismatch, oversized device space, stale epoch.
func TestShardRegistrationRejections(t *testing.T) {
	cfg := testConfig()
	cfg.ShardID = "s7"
	s, release := blockableService(t, cfg)
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	h := s.Handler()

	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "s8", Epoch: 1, TotalDevices: 4},
		cluster.MsgRegisterAck); code != http.StatusConflict {
		t.Errorf("identity mismatch answered %d, want 409", code)
	}
	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "s7", Epoch: 1, TotalDevices: 1000},
		cluster.MsgRegisterAck); code != http.StatusConflict {
		t.Errorf("oversized device space answered %d, want 409", code)
	}
	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "s7", Epoch: 5, TotalDevices: 4, Owned: []int{0}},
		cluster.MsgRegisterAck); code != http.StatusOK {
		t.Fatalf("valid register answered %d", code)
	}
	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "s7", Epoch: 3, TotalDevices: 4, Owned: []int{0}},
		cluster.MsgRegisterAck); code != http.StatusConflict {
		t.Errorf("stale epoch answered %d, want 409", code)
	}
	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "s7", Epoch: 1, TotalDevices: 4, Owned: []int{99}},
		cluster.MsgRegisterAck); code != http.StatusConflict {
		t.Errorf("out-of-fleet ownership answered %d, want 409", code)
	}
}

// TestShardUnlockHTTPStatuses drives the client-facing unlock endpoint
// against a registered shard and pins the 421/503 mappings the gateway
// routes on.
func TestShardUnlockHTTPStatuses(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { _ = s.Shutdown(context.Background()) }()
	close(release) // sessions complete immediately
	h := s.Handler()

	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "standalone", Epoch: 1, TotalDevices: 4, Owned: []int{0}},
		cluster.MsgRegisterAck); code != http.StatusOK {
		t.Fatalf("register answered %d", code)
	}

	unlock := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/unlock", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := unlock(`{"device":2}`); rec.Code != http.StatusMisdirectedRequest {
		t.Errorf("not-owned unlock answered %d, want 421", rec.Code)
	}
	s.shardFence([]int{0})
	rec := unlock(`{"device":0}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("fenced unlock answered %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("fenced 503 carries no Retry-After — that is a dropped request")
	}
}

// TestShardHeartbeat checks the pulse message and its epoch gate.
func TestShardHeartbeat(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	h := s.Handler()

	if _, code := shardPost[cluster.RegisterResponse](t, h, "/cluster/v1/register",
		cluster.MsgRegister, &cluster.RegisterRequest{ShardID: "standalone", Epoch: 4, TotalDevices: 4, Owned: []int{0, 1, 2}},
		cluster.MsgRegisterAck); code != http.StatusOK {
		t.Fatalf("register answered %d", code)
	}
	ack, code := shardPost[cluster.HeartbeatResponse](t, h, "/cluster/v1/heartbeat",
		cluster.MsgHeartbeat, &cluster.HeartbeatRequest{Epoch: 4}, cluster.MsgHeartbeatAck)
	if code != http.StatusOK || ack == nil {
		t.Fatalf("heartbeat answered %d", code)
	}
	if !ack.Ready || ack.OwnedCount != 3 || ack.Epoch != 4 {
		t.Errorf("heartbeat ack %+v", ack)
	}
	if _, code := shardPost[cluster.HeartbeatResponse](t, h, "/cluster/v1/heartbeat",
		cluster.MsgHeartbeat, &cluster.HeartbeatRequest{Epoch: 2}, cluster.MsgHeartbeatAck); code != http.StatusConflict {
		t.Errorf("stale heartbeat answered %d, want 409", code)
	}
}

// TestShardExportRequiresStore pins the durability precondition: range
// transfer endpoints refuse on an ephemeral daemon.
func TestShardExportRequiresStore(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	h := s.Handler()
	if _, code := shardPost[cluster.ExportRangeResponse](t, h, "/cluster/v1/export-range",
		cluster.MsgExportRange, &cluster.ExportRangeRequest{Epoch: 1, Devices: []int{0}},
		cluster.MsgExportRangeAck); code != http.StatusServiceUnavailable {
		t.Errorf("ephemeral export answered %d, want 503", code)
	}
}

// TestShardWireRejectsGarbage checks the cluster endpoints answer typed
// wire errors, not panics, for non-wire bodies.
func TestShardWireRejectsGarbage(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	h := s.Handler()
	for _, path := range []string{
		"/cluster/v1/register", "/cluster/v1/heartbeat",
		"/cluster/v1/export-range", "/cluster/v1/import-range", "/cluster/v1/release-range",
	} {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte("not a wire frame")))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s answered %d for garbage, want 400", path, rec.Code)
		}
		m, err := cluster.Decode(rec.Body.Bytes())
		if err != nil || m.Type != cluster.MsgError {
			t.Errorf("%s garbage answer is not a wire error frame (type %v, err %v)", path, m.Type, err)
		}
	}
}

// TestShardQueuedSessionAcrossHandoffRelease holds a session admitted on
// the source before a handoff fence in the queue across fence → export →
// adopt (on the target) → release, then lets it run. By then the source
// owns the device no more and the target serves it from the exported
// counters, so the session must fail retryably without touching them: a
// session that ran would advance counters the target already re-issued,
// and one HOTP token would be accepted twice.
func TestShardQueuedSessionAcrossHandoffRelease(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := durableConfig(t.TempDir())
	cfg.Workers = 1
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Shutdown(context.Background()) }()
	tcfg := durableConfig(t.TempDir())
	dst, err := New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dst.Shutdown(context.Background()) }()
	if err := src.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dst.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	srcH, dstH := src.Handler(), dst.Handler()
	for _, reg := range []struct {
		h     http.Handler
		owned []int
	}{{srcH, []int{0, 1}}, {dstH, []int{2, 3}}} {
		if _, code := shardPost[cluster.RegisterResponse](t, reg.h, "/cluster/v1/register", cluster.MsgRegister,
			&cluster.RegisterRequest{ShardID: "standalone", Epoch: 1, TotalDevices: 4, Owned: reg.owned},
			cluster.MsgRegisterAck); code != http.StatusOK {
			t.Fatalf("register: HTTP %d", code)
		}
	}

	// The one worker is held on device 1 while the device-0 session
	// queues behind it.
	started, gate := make(chan struct{}), make(chan struct{})
	run := src.unlock
	src.unlock = func(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error) {
		if dev.id == 1 {
			close(started)
			<-gate
		}
		return run(ctx, dev, sc)
	}
	blocker, err := src.Submit(Request{Scenario: "out-of-range", Device: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := src.Submit(Request{Scenario: "out-of-range", Device: 0})
	if err != nil {
		t.Fatalf("admitting the device-0 session before the fence: %v", err)
	}

	exp, code := shardPost[cluster.ExportRangeResponse](t, srcH, "/cluster/v1/export-range", cluster.MsgExportRange,
		&cluster.ExportRangeRequest{Epoch: 1, Devices: []int{0}, Fence: true}, cluster.MsgExportRangeAck)
	if code != http.StatusOK {
		t.Fatalf("fenced export: HTTP %d", code)
	}
	if _, code := shardPost[cluster.ImportRangeResponse](t, dstH, "/cluster/v1/import-range", cluster.MsgImportRange,
		&cluster.ImportRangeRequest{Epoch: 1, Devices: []int{0}, Records: exp.Records, Adopt: true},
		cluster.MsgImportRangeAck); code != http.StatusOK {
		t.Fatalf("adopting import: HTTP %d", code)
	}
	if _, code := shardPost[cluster.ReleaseRangeResponse](t, srcH, "/cluster/v1/release-range", cluster.MsgReleaseRange,
		&cluster.ReleaseRangeRequest{Epoch: 1, Devices: []int{0}}, cluster.MsgReleaseRangeAck); code != http.StatusOK {
		t.Fatalf("release: HTTP %d", code)
	}
	shipped, ok := src.store.Device(0)
	if !ok {
		t.Fatal("device 0 has no durable record after the fenced export")
	}

	close(gate)
	for _, sess := range []*Session{blocker, queued} {
		if err := sess.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if v := queued.Snapshot(); v.State != "failed" || !errors.Is(queued.Err(), ErrNotOwned) {
		t.Fatalf("session queued across the handoff ended %s (%v), want failed with ErrNotOwned", v.State, queued.Err())
	}
	after, _ := src.store.Device(0)
	if after.GenCounter != shipped.GenCounter || after.VerCounter != shipped.VerCounter || after.RngDraws != shipped.RngDraws {
		t.Fatalf("source advanced device 0 after releasing it: shipped %+v, now %+v", shipped, after)
	}
}

// TestShardOwnedListRace races unpinned Submits, which round-robin over
// the owned list, against the adopt and release steps that rebuild it.
// Run under -race: a list rebuilt in place is a data race with the
// picker indexing the list it was handed.
func TestShardOwnedListRace(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 16
	cfg.QueueDepth = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	s.unlock = func(context.Context, *devicePair, core.Scenario) (Answer, error) {
		return Answer{Outcome: core.OutcomeUnlocked, Unlocked: true, BER: -1}, nil
	}
	if _, code := shardPost[cluster.RegisterResponse](t, s.Handler(), "/cluster/v1/register", cluster.MsgRegister,
		&cluster.RegisterRequest{ShardID: "standalone", Epoch: 1, TotalDevices: 16, Owned: []int{0, 1, 2, 3, 4, 5, 6, 7}},
		cluster.MsgRegisterAck); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sess, err := s.Submit(Request{Device: -1}); err == nil {
					_ = sess.Wait(context.Background())
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		moved := []int{8 + i%8, 15 - i%8}
		s.shardAdoptOwned(moved)
		s.shardRelease(moved)
	}
	close(stop)
	wg.Wait()
}
