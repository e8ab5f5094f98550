package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"wearlock/internal/core"
	"wearlock/internal/fault"
	"wearlock/internal/otp"
)

func resilientConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Resilience = core.DefaultResilience()
	return cfg
}

// TestBackoffProperties checks the retry-delay generator across many
// random streams: the jittered sequence is non-decreasing, each delay
// stays inside the jitter envelope, and the cap binds for large retries.
func TestBackoffProperties(t *testing.T) {
	for _, jitter := range []float64{0, 0.1, 0.2, 1.0 / 3} {
		rc := core.ResilienceConfig{
			Enabled:       true,
			MaxRetries:    3,
			BackoffBase:   200 * time.Millisecond,
			BackoffMax:    2 * time.Second,
			BackoffJitter: jitter,
		}
		if err := rc.Validate(); err != nil {
			t.Fatalf("jitter %v: %v", jitter, err)
		}
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prev := time.Duration(0)
			for retry := 0; retry <= 10; retry++ {
				d := rc.Backoff(retry, rng)
				if d < prev {
					t.Fatalf("jitter %v seed %d: backoff(%d)=%v < backoff(%d)=%v — not monotone",
						jitter, seed, retry, d, retry-1, prev)
				}
				raw := float64(rc.BackoffBase) * math.Pow(2, float64(retry))
				lo := time.Duration(raw * (1 - jitter))
				hi := time.Duration(raw * (1 + jitter))
				if lo > rc.BackoffMax {
					lo = rc.BackoffMax
				}
				if hi > rc.BackoffMax {
					hi = rc.BackoffMax
				}
				if d < lo || d > hi {
					t.Fatalf("jitter %v seed %d retry %d: backoff %v outside [%v, %v]",
						jitter, seed, retry, d, lo, hi)
				}
				prev = d
			}
			// Far past the doubling horizon the cap must bind exactly.
			if d := rc.Backoff(20, rng); d != rc.BackoffMax {
				t.Fatalf("jitter %v: backoff(20)=%v, want cap %v", jitter, d, rc.BackoffMax)
			}
		}
	}
}

func TestResilienceConfigValidateRejectsUnsafeJitter(t *testing.T) {
	rc := core.DefaultResilience()
	rc.BackoffJitter = 0.4 // above 1/3: doubling no longer guarantees monotonicity
	if err := rc.Validate(); err == nil {
		t.Fatal("jitter 0.4 accepted")
	}
	rc.BackoffJitter = math.NaN()
	if err := rc.Validate(); err == nil {
		t.Fatal("NaN jitter accepted")
	}
}

// TestResilientPINFallback drives every wireless operation into the
// ground and checks the ladder runs its full course into a defined PIN
// fallback with the OTP pair resynchronized.
func TestResilientPINFallback(t *testing.T) {
	sys, err := core.NewSystem(resilientConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sc := core.DefaultScenario()
	sc.Faults = fault.CutLinkAfter(0) // link dead from the first op
	res, err := sys.Unlock(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeFallbackPIN || res.Unlocked {
		t.Fatalf("outcome = %v (unlocked=%v), want fallback-pin", res.Outcome, res.Unlocked)
	}
	if res.Degradation != core.DegradePIN {
		t.Fatalf("degradation = %v, want pin-fallback", res.Degradation)
	}
	want := core.DefaultResilience().MaxRetries + 1
	if res.Attempts != want {
		t.Fatalf("attempts = %d, want %d", res.Attempts, want)
	}
	if res.Timeline.TotalFor("resilience/pin-entry") == 0 {
		t.Fatal("timeline missing the PIN-entry step")
	}
	if res.Timeline.TotalFor("resilience/backoff-wait") == 0 {
		t.Fatal("timeline missing backoff waits")
	}
	if g, v := sys.OTPCounters(); g != v {
		t.Fatalf("OTP counters desynchronized after PIN fallback: gen %d, ver %d", g, v)
	}
}

// TestResilientSecurityAbortNotRetried: identity verdicts (an off-body
// attacker tripping the motion filter) must surface on the first attempt —
// retrying would hand an attacker free extra tries.
func TestResilientSecurityAbortNotRetried(t *testing.T) {
	sys, err := core.NewSystem(resilientConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	sc := core.DefaultScenario()
	sc.SameBody = false // phone on a table / in an attacker's hand
	res, err := sys.Unlock(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != core.OutcomeAbortedMotion {
		t.Fatalf("outcome = %v, want aborted-motion-mismatch", res.Outcome)
	}
	if res.Attempts != 1 {
		t.Fatalf("security abort retried: %d attempts", res.Attempts)
	}
	if res.Degradation != core.DegradeNone {
		t.Fatalf("security abort degraded to %v", res.Degradation)
	}
}

// TestResilientCleanPathUnchanged: with no faults the resilient wrapper
// must behave exactly like the classic single attempt.
func TestResilientCleanPathUnchanged(t *testing.T) {
	sys, err := core.NewSystem(resilientConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Unlock(context.Background(), core.DefaultScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unlocked {
		t.Fatalf("clean default scenario failed: %v (%s)", res.Outcome, res.Detail)
	}
	if res.Attempts != 1 || res.Degradation != core.DegradeNone {
		t.Fatalf("clean session took %d attempts at degradation %v", res.Attempts, res.Degradation)
	}
	if res.Outcome != core.OutcomeUnlocked && res.Outcome != core.OutcomeSkipUnlocked {
		t.Fatalf("clean session outcome = %v", res.Outcome)
	}
}

// findHalfDeliveryCut locates the scripted cut position where phase 2 has
// consumed a HOTP counter (the token left the generator) but the session
// still aborts link-down — the half-delivered ACK the resync logic exists
// for. Self-calibrating keeps the test honest if the protocol gains or
// loses wireless operations.
func findHalfDeliveryCut(t *testing.T) int {
	t.Helper()
	for n := 1; n < 32; n++ {
		cfg := core.DefaultConfig() // classic single-attempt behavior
		sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		sc := core.DefaultScenario()
		sc.Faults = fault.CutLinkAfter(n)
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, v := sys.OTPCounters()
		if res.Outcome == core.OutcomeAbortedLinkDown && g > v {
			return n
		}
	}
	t.Fatal("no cut position produces a half-delivered phase 2")
	return 0
}

// TestHOTPResyncAfterHalfDeliveredPhase2 is the regression test for the
// counter-reuse bug class: a link dying between the acoustic token and
// the verification ACK advances the generator without the verifier. A
// plain system walks the pair past the verifier's look-ahead window and
// locks the user out of acoustic unlocking entirely; the resilient path
// must resynchronize and recover.
func TestHOTPResyncAfterHalfDeliveredPhase2(t *testing.T) {
	cut := findHalfDeliveryCut(t)
	lookahead := otp.DefaultLookAhead

	// Plain system: half-deliver one more session than the look-ahead
	// window absorbs, then run clean. The verifier can no longer find the
	// generator's counter — the failure this regression guards.
	plain, err := core.NewSystem(core.DefaultConfig(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= lookahead; i++ {
		sc := core.DefaultScenario()
		sc.Faults = fault.CutLinkAfter(cut)
		res, err := plain.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != core.OutcomeAbortedLinkDown {
			t.Fatalf("half-delivery %d: outcome %v, want aborted-link-down", i, res.Outcome)
		}
	}
	g, v := plain.OTPCounters()
	if int(g-v) <= lookahead {
		t.Fatalf("premise broken: counter gap %d inside look-ahead %d", g-v, lookahead)
	}
	res, err := plain.Unlock(context.Background(), core.DefaultScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unlocked {
		t.Fatal("plain system unlocked past the look-ahead window — verifier accepted a counter it should not know")
	}

	// Resilient system under the identical fault sequence: every session
	// ends with the pair resynchronized, and a clean session afterwards
	// unlocks acoustically.
	resilient, err := core.NewSystem(resilientConfig(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= lookahead; i++ {
		sc := core.DefaultScenario()
		sc.Faults = fault.CutLinkAfter(cut)
		res, err := resilient.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != core.OutcomeFallbackPIN {
			t.Fatalf("resilient half-delivery %d: outcome %v, want fallback-pin", i, res.Outcome)
		}
		if g, v := resilient.OTPCounters(); g != v {
			t.Fatalf("resilient session %d left counters desynchronized: gen %d, ver %d", i, g, v)
		}
	}
	res, err = resilient.Unlock(context.Background(), core.DefaultScenario(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unlocked {
		t.Fatalf("resilient system failed a clean unlock after resync: %v (%s)", res.Outcome, res.Detail)
	}
	if res.Attempts != 1 {
		t.Fatalf("clean post-resync unlock needed %d attempts", res.Attempts)
	}
}

// TestResilientLadderRescuesCollapsedChannel: with the acoustic SNR
// collapsed far below any OFDM mode, the ladder must still end in a
// defined state — and the tone-ACK rung should usually rescue the session
// without the PIN.
func TestResilientLadderRescuesCollapsedChannel(t *testing.T) {
	sch := &fault.Schedule{Name: "collapse", Rules: []fault.Rule{
		{Kind: fault.KindSNRCollapse, Prob: 1, SNRDropDB: 30},
	}}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	rescued := 0
	const sessions = 8
	for i := 0; i < sessions; i++ {
		sys, err := core.NewSystem(resilientConfig(), rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		sc := core.DefaultScenario()
		sc.Faults = fault.ForSession(sch, 5, int64(i))
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case core.OutcomeDegradedUnlocked:
			rescued++
			if res.Degradation < core.DegradeRobustMode {
				t.Fatalf("degraded unlock at level %v", res.Degradation)
			}
		case core.OutcomeFallbackPIN:
			// Defined, just unlucky (e.g. the tone also buried).
		default:
			t.Fatalf("session %d: undefined terminal state %v under SNR collapse", i, res.Outcome)
		}
		if res.Attempts < 2 {
			t.Fatalf("session %d: collapsed channel resolved in %d attempt(s)", i, res.Attempts)
		}
		if g, v := sys.OTPCounters(); g != v {
			t.Fatalf("session %d: counters desynchronized", i)
		}
	}
	if rescued == 0 {
		t.Fatal("tone-ACK rung rescued no session out of 8 — the ladder's last acoustic rung is dead")
	}
}
