package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// DegradationLevel names the rung of the resilience ladder a session ended
// on. The ladder trades throughput (and, at the tone rung, acoustic
// bandwidth) for robustness, one rung per retry, and bottoms out at the
// manual PIN keyguard — the fallback the paper's field test leans on when
// the acoustic world wins (Sec. VI).
type DegradationLevel int

// The ladder, in escalation order.
const (
	// DegradeNone: first attempt, no degradation.
	DegradeNone DegradationLevel = iota
	// DegradeRetry: a plain retry after backoff, same configuration.
	DegradeRetry
	// DegradeRobustMode: adaptive modulation stepped down to the most
	// robust mode under the relaxed BER bound, with extra repetition
	// coding — the Fig. 8 controller driven to its floor.
	DegradeRobustMode
	// DegradeToneACK: the OFDM downlink is abandoned; co-presence is
	// proven by a single pilot tone (trivially detectable at SNRs far
	// below what a data frame needs) and the OTP rides the wireless
	// control link instead.
	DegradeToneACK
	// DegradePIN: automatic unlocking gave up; the keyguard falls back to
	// manual PIN entry.
	DegradePIN
)

// String implements fmt.Stringer.
func (d DegradationLevel) String() string {
	switch d {
	case DegradeNone:
		return "none"
	case DegradeRetry:
		return "retry"
	case DegradeRobustMode:
		return "robust-mode"
	case DegradeToneACK:
		return "tone-ack"
	case DegradePIN:
		return "pin-fallback"
	default:
		return fmt.Sprintf("DegradationLevel(%d)", int(d))
	}
}

// ResilienceConfig parameterizes the retry/degradation policy.
type ResilienceConfig struct {
	// Enabled gates the whole policy; the zero value keeps the classic
	// single-attempt behavior.
	Enabled bool
	// MaxRetries bounds retries after the first attempt.
	MaxRetries int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it (bounded by BackoffMax).
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.
	BackoffMax time.Duration
	// BackoffJitter is the symmetric multiplicative jitter fraction in
	// [0, 1/3]. The 1/3 bound keeps the jittered sequence monotone:
	// 2·(1−j) ≥ (1+j) exactly when j ≤ 1/3, so a doubled delay jittered
	// down never undercuts the previous delay jittered up.
	BackoffJitter float64
	// PhaseTimeout bounds the simulated duration of any single wireless
	// operation; an operation exceeding it is treated as a link failure.
	// Zero means unbounded.
	PhaseTimeout time.Duration
	// ToneACK enables the tone-only rung before the PIN fallback.
	ToneACK bool
}

// DefaultResilience returns the production policy: three retries, 200 ms
// base backoff capped at 2 s with 20% jitter, 5 s per-phase timeout
// (comfortably above the ~1.5 s an honest Bluetooth clip upload takes),
// tone-ACK rung enabled.
func DefaultResilience() ResilienceConfig {
	return ResilienceConfig{
		Enabled:       true,
		MaxRetries:    3,
		BackoffBase:   200 * time.Millisecond,
		BackoffMax:    2 * time.Second,
		BackoffJitter: 0.2,
		PhaseTimeout:  5 * time.Second,
		ToneACK:       true,
	}
}

// Validate checks policy consistency.
func (r ResilienceConfig) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("core: resilience MaxRetries %d must be non-negative", r.MaxRetries)
	}
	if r.BackoffBase <= 0 {
		return fmt.Errorf("core: resilience BackoffBase must be positive")
	}
	if r.BackoffMax < r.BackoffBase {
		return fmt.Errorf("core: resilience BackoffMax %v must be >= BackoffBase %v", r.BackoffMax, r.BackoffBase)
	}
	if math.IsNaN(r.BackoffJitter) || r.BackoffJitter < 0 || r.BackoffJitter > 1.0/3 {
		return fmt.Errorf("core: resilience BackoffJitter %v outside [0, 1/3]", r.BackoffJitter)
	}
	if r.PhaseTimeout < 0 {
		return fmt.Errorf("core: resilience PhaseTimeout must be non-negative")
	}
	return nil
}

// Backoff returns the delay before retry number retry (0-based), jittered
// by rng: min(BackoffMax, BackoffBase · 2^retry · (1 ± BackoffJitter)).
// With BackoffJitter ≤ 1/3 the sequence is non-decreasing in retry for
// any rng draws.
func (r ResilienceConfig) Backoff(retry int, rng *rand.Rand) time.Duration {
	if retry < 0 {
		retry = 0
	}
	raw := float64(r.BackoffBase) * math.Pow(2, float64(retry))
	if r.BackoffJitter > 0 && rng != nil {
		raw *= 1 + r.BackoffJitter*(2*rng.Float64()-1)
	}
	if max := float64(r.BackoffMax); raw > max {
		raw = max
	}
	return time.Duration(raw)
}

// retryable reports whether an outcome is a transient failure the ladder
// may retry. Security aborts (motion/noise mismatch, timing window,
// distance bound) are identity verdicts, not channel conditions — retrying
// them would hand an attacker free extra attempts, so they surface as-is.
func retryable(o Outcome) bool {
	switch o {
	case OutcomeAbortedLinkDown, OutcomeAbortedNoSignal, OutcomeAbortedNoMode, OutcomeTokenMismatch:
		return true
	default:
		return false
	}
}

// boostRepetition strengthens the repetition code for the robust rung,
// keeping the factor odd (majority voting) and bounded.
func boostRepetition(rep int) int {
	boosted := rep + 2
	if boosted > 9 {
		boosted = 9
	}
	return boosted
}

// rungFor maps a 0-based attempt number onto the ladder.
func (s *System) rungFor(attempt int, rc ResilienceConfig) (DegradationLevel, attemptOpts) {
	last := rc.MaxRetries // the final attempt before PIN
	switch {
	case attempt == 0:
		return DegradeNone, attemptOpts{}
	case attempt == 1:
		return DegradeRetry, attemptOpts{}
	case attempt >= last && rc.ToneACK:
		return DegradeToneACK, attemptOpts{forceRobust: true, toneOnly: true}
	default:
		return DegradeRobustMode, attemptOpts{forceRobust: true, repetition: boostRepetition(s.cfg.Repetition)}
	}
}

// OTPCounters exposes the generator and verifier HOTP counters for
// conformance tests: after any completed session — resilient or not — the
// two must be reconcilable within the verifier's look-ahead window, and
// after a resilient session they must be equal.
func (s *System) OTPCounters() (generator, verifier uint64) {
	return s.gen.Counter(), s.ver.Counter()
}
