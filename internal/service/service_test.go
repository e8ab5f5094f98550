package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/keyguard"
	"wearlock/internal/vtime"
)

// testConfig returns a small deterministic daemon configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Devices = 4
	cfg.Workers = 2
	cfg.QueueDepth = 2
	cfg.SessionTTL = time.Minute
	cfg.GCInterval = 10 * time.Millisecond
	cfg.RequestTimeout = 5 * time.Second
	return cfg
}

// blockableService swaps the unlock hook for a gate the test controls,
// so admission and drain states can be pinned precisely.
func blockableService(t *testing.T, cfg Config) (*Service, chan struct{}) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := make(chan struct{})
	s.unlock = func(ctx context.Context, dev *devicePair, sc core.Scenario) (Answer, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return Answer{}, ctx.Err()
		}
		return Answer{Outcome: core.OutcomeUnlocked, Unlocked: true, BER: -1}, nil
	}
	return s, release
}

// Admission control: with every worker and queue slot occupied, Submit
// must reject with ErrQueueFull and count the rejection; free capacity
// admits again.
func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { _ = s.Shutdown(context.Background()) }()

	// Fill the 2 workers first and wait until both hold a session, so
	// the queue is empty and its 2 slots are the only capacity left.
	var admitted []*Session
	for i := 0; i < 2; i++ {
		sess, err := s.Submit(Request{Device: -1})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		admitted = append(admitted, sess)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.m.inflight.Value() != 2 {
		t.Fatalf("workers did not pick up sessions: inflight %d", s.m.inflight.Value())
	}
	// Fill both queue slots.
	for i := 0; i < 2; i++ {
		sess, err := s.Submit(Request{Device: -1})
		if err != nil {
			t.Fatalf("queue Submit %d: %v", i, err)
		}
		admitted = append(admitted, sess)
	}
	if _, err := s.Submit(Request{Device: -1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity Submit: %v, want ErrQueueFull", err)
	}
	if got := s.m.rejected.With("queue_full").Value(); got != 1 {
		t.Errorf("queue_full rejections %d, want 1", got)
	}

	// Released sessions all finish; every admitted session completes,
	// and freed capacity admits new work again.
	close(release)
	for i, sess := range admitted {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sess.Wait(ctx); err != nil {
			t.Fatalf("session %d never finished: %v", i, err)
		}
		cancel()
	}
	for i := 0; i < 2; i++ {
		sess, err := s.Submit(Request{Device: -1})
		if err != nil {
			t.Fatalf("post-release Submit %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sess.Wait(ctx); err != nil {
			t.Fatalf("post-release session %d: %v", i, err)
		}
		cancel()
		admitted = append(admitted, sess)
	}
	if got := s.m.sessions.With("unlocked").Value(); got != 6 {
		t.Errorf("unlocked counter %d, want 6", got)
	}
}

// Graceful drain: in-flight sessions finish, new submissions are
// rejected with ErrDraining, and Drain returns only once the fleet is
// idle.
func TestGracefulDrain(t *testing.T) {
	s, release := blockableService(t, testConfig())
	sess, err := s.Submit(Request{Device: -1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must flip the admission gate quickly even while a session is
	// in flight.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(Request{Device: -1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining: %v, want ErrDraining", err)
	}
	if got := s.m.rejected.With("draining").Value(); got != 1 {
		t.Errorf("draining rejections %d, want 1", got)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned with a session in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after sessions finished")
	}
	if err := sess.Wait(context.Background()); err != nil {
		t.Fatalf("drained session: %v", err)
	}
	if v := sess.Snapshot(); v.State != "done" || !v.Unlocked {
		t.Errorf("drained session state %s unlocked=%v, want done/true", v.State, v.Unlocked)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// A Drain bounded by an already-short context must give up and report
// the context error while a session is stuck in flight.
func TestDrainTimeout(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	if _, err := s.Submit(Request{Device: -1}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a blocked session")
	}
}

// Session GC: finished sessions expire after the TTL; unfinished ones
// are never collected.
func TestSessionGC(t *testing.T) {
	cfg := testConfig()
	cfg.SessionTTL = time.Minute
	cfg.GCInterval = time.Hour // the background loop stays quiet; the test drives sweeps
	clock := vtime.NewManualClock(time.Unix(1700000000, 0))
	cfg.Clock = clock
	s, release := blockableService(t, cfg)
	defer func() { _ = s.Shutdown(context.Background()) }()

	blocked, err := s.Submit(Request{Device: -1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// An in-flight session must survive a sweep no matter how far time
	// has moved.
	clock.Advance(time.Hour)
	s.gcOnce(clock.Now())
	if _, ok := s.Get(blocked.ID); !ok {
		t.Fatal("GC collected a session still in flight")
	}

	close(release)
	if err := blocked.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	finished := clock.Now()
	// Finished but within the TTL: still queryable.
	s.gcOnce(finished.Add(cfg.SessionTTL / 2))
	if _, ok := s.Get(blocked.ID); !ok {
		t.Fatal("GC collected a session inside its TTL")
	}
	// One tick past the TTL: collected.
	s.gcOnce(finished.Add(cfg.SessionTTL + time.Nanosecond))
	if _, ok := s.Get(blocked.ID); ok {
		t.Fatal("finished session not collected after TTL")
	}
	if s.m.gced.Value() == 0 {
		t.Error("GC counter not incremented")
	}
}

// TestRetryAfterEstimate pins the computed Retry-After: 1 s before any
// history, backlog/drain-rate afterwards, clamped to [1, 30].
func TestRetryAfterEstimate(t *testing.T) {
	s, release := blockableService(t, testConfig()) // 2 workers
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()

	if got := s.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter with no history = %d, want 1", got)
	}
	s.observeWall(10 * time.Second)
	// Empty queue: one slot to free, 2 workers draining ~10 s sessions.
	if got := s.RetryAfter(); got != 5 {
		t.Fatalf("RetryAfter = %d, want ceil(1*10s/2) = 5", got)
	}
	for i := 0; i < 64; i++ {
		s.observeWall(10 * time.Minute)
	}
	if got := s.RetryAfter(); got != 30 {
		t.Fatalf("RetryAfter = %d, want the 30 s clamp", got)
	}
}

// TestRetryAfterEdgeCases covers the drain-EWMA estimate's boundary
// behavior: zero completed sessions (cold EWMA), sub-second sessions
// hitting the lower clamp, the first observation seeding the EWMA
// directly, and decay back from a spike.
func TestRetryAfterEdgeCases(t *testing.T) {
	s, release := blockableService(t, testConfig()) // 2 workers
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()

	// Zero completed sessions: no drain history exists, so the estimate
	// must fall back to the fixed 1 s, never 0 or a garbage division.
	for i := 0; i < 3; i++ {
		if got := s.RetryAfter(); got != 1 {
			t.Fatalf("RetryAfter before any completion = %d, want 1", got)
		}
	}

	// Sub-second sessions: backlog/drain rounds below one second; the
	// answer clamps up to 1, because Retry-After: 0 invites a busy loop.
	s.observeWall(10 * time.Millisecond)
	if got := s.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter with 10ms sessions = %d, want the 1 s clamp", got)
	}

	// The first observation seeds the EWMA with the raw value (no decay
	// from a zero initial state that would underestimate for ~10 sessions).
	s2, release2 := blockableService(t, testConfig())
	defer func() { close(release2); _ = s2.Shutdown(context.Background()) }()
	s2.observeWall(4 * time.Second)
	if got := s2.RetryAfter(); got != 2 {
		t.Fatalf("RetryAfter after one 4s session = %d, want ceil(1*4s/2) = 2", got)
	}

	// Decay: after a spike, fresh fast sessions pull the estimate back
	// down within the EWMA's ~10-session window.
	for i := 0; i < 64; i++ {
		s2.observeWall(10 * time.Minute)
	}
	if got := s2.RetryAfter(); got != 30 {
		t.Fatalf("RetryAfter at spike = %d, want the 30 s clamp", got)
	}
	for i := 0; i < 64; i++ {
		s2.observeWall(100 * time.Millisecond)
	}
	if got := s2.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter after recovery = %d, want 1", got)
	}
}

// Unknown scenarios and out-of-range device pins are rejected without
// side effects.
func TestSubmitValidation(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { close(release); _ = s.Shutdown(context.Background()) }()
	if _, err := s.Submit(Request{Scenario: "no-such-scenario", Device: -1}); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("unknown scenario: %v", err)
	}
	if _, err := s.Submit(Request{Device: 99}); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("out-of-range device: %v", err)
	}
	if n := len(s.sessions); n != 0 {
		t.Errorf("rejected submissions left %d tracked sessions", n)
	}
}

// Per-request deadlines thread into the session run: a blocked unlock
// ends as a failed session with the deadline error, and the fleet keeps
// serving afterwards.
func TestRequestDeadline(t *testing.T) {
	s, release := blockableService(t, testConfig())
	defer func() { _ = s.Shutdown(context.Background()) }()
	sess, err := s.Submit(Request{Device: -1, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := sess.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if v := sess.Snapshot(); v.State != "failed" || !strings.Contains(v.Error, "deadline") {
		t.Errorf("timed-out session state %s error %q, want failed/deadline", v.State, v.Error)
	}
	if got := s.m.sessions.With("error").Value(); got != 1 {
		t.Errorf("error counter %d, want 1", got)
	}
	close(release)
	next, err := s.Submit(Request{Device: -1})
	if err != nil {
		t.Fatalf("Submit after timeout: %v", err)
	}
	if err := next.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if v := next.Snapshot(); v.State != "done" {
		t.Errorf("follow-up session state %s, want done", v.State)
	}
}

// The real protocol under concurrent load: outcome counters must equal
// the observed per-outcome totals exactly, with zero data races (run
// with -race) — the /metrics consistency contract loadgen checks against
// the live daemon.
func TestConcurrentRealSessionsMetricsConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 8
	cfg.Workers = 4
	cfg.QueueDepth = 512 // no backpressure in this test: every session runs
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()

	scenarios := []string{"default", "quiet", "samehand", "attacker", "out-of-range", "far"}
	const total = 60
	var (
		mu       sync.Mutex
		observed = map[string]uint64{}
		wg       sync.WaitGroup
	)
	for i := 0; i < total; i++ {
		sess, err := s.Submit(Request{Scenario: scenarios[i%len(scenarios)], Device: -1})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := sess.Wait(ctx); err != nil {
				t.Errorf("session %s: %v", sess.ID, err)
				return
			}
			v := sess.Snapshot()
			key := v.Outcome
			if v.State == "failed" {
				key = "error"
			}
			mu.Lock()
			observed[key]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	counted := s.m.sessions.Values()
	var sum uint64
	for outcome, n := range counted {
		sum += n
		if observed[outcome] != n {
			t.Errorf("outcome %q: metrics %d, observed %d", outcome, n, observed[outcome])
		}
	}
	for outcome, n := range observed {
		if counted[outcome] != n {
			t.Errorf("outcome %q: observed %d, metrics %d", outcome, n, counted[outcome])
		}
	}
	if sum != total {
		t.Errorf("metrics counted %d sessions, want %d", sum, total)
	}
	// The out-of-range scenario must have exercised the link-down path.
	if counted[core.OutcomeAbortedLinkDown.String()] == 0 {
		t.Error("no aborted-link-down outcomes from the out-of-range scenario")
	}
	// Prometheus export carries the same numbers.
	text := s.reg.String()
	for outcome, n := range counted {
		want := fmt.Sprintf("wearlockd_sessions_total{outcome=%q} %d", outcome, n)
		if !strings.Contains(text, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

// A session's metrics are recorded before it is marked done: a waiter
// (or a /metrics scrape right after a response) must never see a
// finished session the outcome counters do not yet include.
func TestSessionMetricsRecordedBeforeDone(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()

	const total = 200
	for i := 1; i <= total; i++ {
		sess, err := s.Submit(Request{Scenario: "out-of-range", Device: -1})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = sess.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		var sum uint64
		for _, n := range s.m.sessions.Values() {
			sum += n
		}
		if sum != uint64(i) {
			t.Fatalf("after session %d finished, outcome counters sum to %d", i, sum)
		}
	}
}

// Pinning a device serializes its sessions: the OTP stream on one device
// advances session-by-session regardless of request interleaving.
func TestDevicePinning(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	var sessions []*Session
	for i := 0; i < 6; i++ {
		sess, err := s.Submit(Request{Scenario: "quiet", Device: 1})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if sess.Device != 1 {
			t.Fatalf("session on device %d, want 1", sess.Device)
		}
		sessions = append(sessions, sess)
	}
	for _, sess := range sessions {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := sess.Wait(ctx); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		cancel()
	}
}

// A keyguard lockout never strands a device. With the resilience ladder
// off, runOnDevice clears the lockout itself and counts it as a manual
// unlock; with the ladder on, the session ends in the PIN fallback, which
// counts the manual unlock once. Either way the next session on the
// device runs the protocol instead of short-circuiting.
func TestLockoutClearedByManualUnlock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ladder bool
		want   core.Outcome
	}{
		{"ladder-off", false, core.OutcomeLockedOut},
		{"ladder-on", true, core.OutcomeFallbackPIN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Devices = 1
			if tc.ladder {
				cfg.Core.Resilience = core.DefaultResilience()
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer func() { _ = s.Shutdown(context.Background()) }()
			dev := s.devices[0]
			dev.lock()
			guard := dev.sys.Keyguard()
			dev.mu.Unlock()
			if err := guard.SetMaxFailures(1); err != nil {
				t.Fatalf("SetMaxFailures: %v", err)
			}
			guard.ReportFailure() // one rejected token locks the device out
			run := func() View {
				t.Helper()
				sess, err := s.Submit(Request{Scenario: "quiet", Device: 0})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := sess.Wait(ctx); err != nil {
					t.Fatalf("Wait: %v", err)
				}
				return sess.Snapshot()
			}

			if v := run(); v.State != "done" || v.Outcome != tc.want.String() {
				t.Fatalf("locked-out session: state %s outcome %q, want done/%s", v.State, v.Outcome, tc.want)
			}
			if got := s.m.manualUnlocks.Value(); got != 1 {
				t.Errorf("wearlockd_manual_unlocks_total = %d, want 1", got)
			}
			if st := guard.State(); st == keyguard.StateLockedOut {
				t.Fatal("keyguard still locked out after the session")
			}
			// A locked-out session short-circuits with an empty timeline;
			// this one must run the protocol (its own outcome is whatever
			// the channel gives).
			if v := run(); v.State != "done" || v.UnlockDelayMS == 0 {
				t.Errorf("session after the lockout: state %s outcome %q delay %.1f ms, want a protocol run", v.State, v.Outcome, v.UnlockDelayMS)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{}, // zero devices
		func() Config { c := DefaultConfig(); c.SessionTTL = 0; return c }(),
		func() Config { c := DefaultConfig(); c.RequestTimeout = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Core.MaxBER = 5; return c }(),
		func() Config {
			c := DefaultConfig()
			c.Scenarios = map[string]core.Scenario{"bad": {Distance: -1}}
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
