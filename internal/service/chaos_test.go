package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/fault"
)

// chaosConfig arms the builtin chaos schedule on a small fleet. New must
// auto-enable the resilience ladder: chaos without it would strand
// sessions in bare aborts.
func chaosConfig() Config {
	cfg := testConfig()
	cfg.Chaos = fault.DefaultChaosSchedule()
	return cfg
}

// TestChaosSessionsReachDefinedStates runs real protocol sessions under
// the builtin fault schedule and checks the daemon-level contract: every
// admitted session terminates in a defined outcome, and the resilience
// counters published on /metrics exactly match the per-session results.
func TestChaosSessionsReachDefinedStates(t *testing.T) {
	s, err := New(chaosConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	if !s.cfg.Core.Resilience.Enabled {
		t.Fatal("chaos config did not auto-enable the resilience ladder")
	}

	const submissions = 24
	var (
		results       []Answer
		chaosRejected uint64
	)
	for i := 0; i < submissions; i++ {
		sess, err := s.Submit(Request{Device: -1})
		if errors.Is(err, ErrQueueFull) {
			// The pool-exhaust fault rejects at admission, indistinguishable
			// from genuine overload by design. Sequential submission means
			// genuine overload is impossible here, so every rejection is
			// chaos-injected.
			chaosRejected++
			continue
		}
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = sess.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("session %d never terminated: %v", i, err)
		}
		if werr := sess.Err(); werr != nil {
			t.Fatalf("session %d failed: %v", i, werr)
		}
		res, ok := sess.Answer()
		if !ok {
			t.Fatalf("session %d finished in an undefined state", i)
		}
		if v := sess.Snapshot(); v.State != "done" {
			t.Fatalf("session %d snapshot state %q, want done", i, v.State)
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		t.Fatal("chaos rejected every submission — schedule too hot for the test")
	}

	// Re-derive the expected counters from the results and hold the
	// registry to them exactly.
	var wantRetries, wantDegraded, wantFallback uint64
	for _, res := range results {
		if res.Attempts > 1 {
			wantRetries += uint64(res.Attempts - 1)
		}
		if res.Unlocked && res.Degradation >= core.DegradeRobustMode {
			wantDegraded++
		}
		if res.Outcome == core.OutcomeFallbackPIN {
			wantFallback++
		}
	}
	if wantRetries == 0 {
		t.Fatal("builtin chaos triggered no retries over 24 sessions — injection is not reaching the protocol")
	}
	if got := s.m.retries.Value(); got != wantRetries {
		t.Errorf("wearlockd_retries_total = %d, results imply %d", got, wantRetries)
	}
	if got := s.m.degraded.Value(); got != wantDegraded {
		t.Errorf("wearlockd_degraded_total = %d, results imply %d", got, wantDegraded)
	}
	if got := s.m.fallback.Value(); got != wantFallback {
		t.Errorf("wearlockd_fallback_total = %d, results imply %d", got, wantFallback)
	}
	if got := s.m.rejected.With("chaos_pool_exhausted").Value(); got != chaosRejected {
		t.Errorf("chaos_pool_exhausted rejections = %d, observed %d", got, chaosRejected)
	}
	// The outcome counter vec must account for every finished session,
	// with no outcome outside the defined set.
	defined := map[string]bool{}
	for _, o := range []core.Outcome{
		core.OutcomeUnlocked, core.OutcomeSkipUnlocked, core.OutcomeDegradedUnlocked,
		core.OutcomeFallbackPIN, core.OutcomeAbortedMotion, core.OutcomeAbortedNoiseMismatch,
		core.OutcomeAbortedLinkDown, core.OutcomeAbortedNoSignal, core.OutcomeAbortedNoMode,
		core.OutcomeAbortedTiming, core.OutcomeAbortedRange, core.OutcomeTokenMismatch,
		core.OutcomeLockedOut,
	} {
		defined[o.String()] = true
	}
	var total uint64
	for outcome, n := range s.m.sessions.Values() {
		if !defined[outcome] {
			t.Errorf("outcome counter %q is outside the defined terminal set", outcome)
		}
		total += n
	}
	if total != uint64(len(results)) {
		t.Errorf("outcome counters sum to %d, finished %d sessions", total, len(results))
	}

	// The rendered /metrics page must expose the resilience counters.
	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	page := sb.String()
	for _, name := range []string{
		"wearlockd_retries_total", "wearlockd_degraded_total", "wearlockd_fallback_total",
	} {
		if !strings.Contains(page, name) {
			t.Errorf("metrics page missing %s", name)
		}
	}
}

// TestChaosReplaysIdenticallyAcrossDaemons: two daemons with the same
// seed, schedule, and submission order must produce the identical
// outcome sequence — the service-level face of the SeedFor contract.
func TestChaosReplaysIdenticallyAcrossDaemons(t *testing.T) {
	runDaemon := func() []string {
		t.Helper()
		s, err := New(chaosConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer func() { _ = s.Shutdown(context.Background()) }()
		var outcomes []string
		for i := 0; i < 12; i++ {
			// Pin the device so per-device OTP state advances identically.
			sess, err := s.Submit(Request{Device: i % 2})
			if errors.Is(err, ErrQueueFull) {
				outcomes = append(outcomes, "rejected")
				continue
			}
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err = sess.Wait(ctx)
			cancel()
			if err != nil {
				t.Fatalf("session %d never terminated: %v", i, err)
			}
			outcomes = append(outcomes, sess.Snapshot().Outcome)
		}
		return outcomes
	}

	a := runDaemon()
	b := runDaemon()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("submission %d: %q vs %q — chaos is not a pure function of (seed, sequence)",
				i, a[i], b[i])
		}
	}
}

// TestChaosRejectsInvalidSchedule: a daemon must refuse to start on a
// schedule that fails validation rather than run half-armed.
func TestChaosRejectsInvalidSchedule(t *testing.T) {
	cfg := testConfig()
	cfg.Chaos = &fault.Schedule{Name: "bad", Rules: []fault.Rule{
		{Kind: fault.KindLinkDrop, Prob: 1.5},
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an invalid chaos schedule")
	}
}
