package core

import (
	"context"
	"fmt"
	"time"
)

// UnlockStep reports one step of an UnlockMachine: a single rung of the
// resilience ladder (or the terminal PIN fallback), together with the
// virtual time it charged. PreWait is idle time spent before the step's
// work began (the resilience backoff); Occupied is everything the step
// itself charged to the session timeline. The sum of PreWait+Occupied
// over all steps equals Final.Timeline.Total() exactly — the invariant
// the virtual-time engine's timing-accounting suite pins.
type UnlockStep struct {
	// Attempt is the 1-based count of protocol attempts completed so far
	// (unchanged by the PIN step, which is not a protocol attempt).
	Attempt int
	// Level is the degradation rung this step ran.
	Level DegradationLevel
	// Result is this attempt's raw per-attempt result; nil for the PIN
	// fallback step.
	Result *Result
	// PreWait is idle simulated time charged before the step's work: the
	// exponential-backoff delay (zero on the first attempt and the PIN
	// step).
	PreWait time.Duration
	// Occupied is the simulated time the step's own work charged to the
	// timeline (protocol phases for an attempt, the 1.5 s of typing for
	// the PIN fallback).
	Occupied time.Duration
	// Done marks the terminal step; Final then carries the session's
	// merged end-to-end result.
	Done  bool
	Final *Result
}

// UnlockMachine is the resilient unlock session decomposed into discrete
// steps, so a discrete-event scheduler can interleave many sessions over
// virtual time: each Step call performs exactly one ladder rung (or the
// PIN fallback) and reports how much virtual time it charged, instead of
// walking the whole retry loop in one call. The serial UnlockResilientCtx
// path drives the same machine to completion in a tight loop, so the two
// execution styles share one implementation and are bit-identical by
// construction: RNG draws, OTP counter movements, keyguard transitions,
// and timeline entries happen in the same order either way.
//
// A machine is single-use and not safe for concurrent use; like the
// System it runs on, callers serialize per device.
type UnlockMachine struct {
	sys   *System
	sc    Scenario
	fixed AcousticPath // nil: build a fresh link per attempt
	rc    ResilienceConfig

	attempt    int // next attempt index (0-based)
	attempts   int // completed attempts
	level      DegradationLevel
	timeline   *Timeline
	energy     *EnergyLedger
	last       *Result
	pinPending bool
	done       bool
	final      *Result
}

// NewUnlockMachine prepares a stepwise unlock session for the scenario.
// A nil path means each attempt builds a fresh acoustic link from the
// scenario (channel randomness re-rolls per attempt, exactly as a
// re-recorded transmission would); a non-nil path is reused by every
// attempt (attack harness and tests).
//
// When resilience is disabled the machine degenerates to a single step
// that runs the classic one-attempt session.
func (s *System) NewUnlockMachine(sc Scenario, fixed AcousticPath) *UnlockMachine {
	return &UnlockMachine{
		sys:      s,
		sc:       sc,
		fixed:    fixed,
		rc:       s.cfg.Resilience,
		timeline: &Timeline{},
		energy:   NewEnergyLedger(),
	}
}

// Done reports whether the machine has produced its terminal result.
func (m *UnlockMachine) Done() bool { return m.done }

// Final returns the merged end-to-end result once Done, nil before.
func (m *UnlockMachine) Final() *Result { return m.final }

// Step runs the next discrete step of the session: one ladder rung, or
// the PIN fallback once the ladder is exhausted. It returns an error only
// for the session-infrastructure failures the serial path also surfaces
// as errors (invalid scenario, cancelled context); protocol failures are
// outcomes, not errors.
func (m *UnlockMachine) Step(ctx context.Context) (UnlockStep, error) {
	if m.done {
		return UnlockStep{}, fmt.Errorf("core: unlock machine already finished")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	if !m.rc.Enabled {
		return m.stepClassic(ctx)
	}
	if m.pinPending {
		return m.stepPIN(), nil
	}
	return m.stepAttempt(ctx)
}

// stepClassic is the single-attempt session behind Unlock/UnlockVia when
// the resilience policy is off.
func (m *UnlockMachine) stepClassic(ctx context.Context) (UnlockStep, error) {
	path := m.fixed
	if path == nil {
		var err error
		if path, err = m.sys.sessionPath(m.sc); err != nil {
			return UnlockStep{}, err
		}
	}
	r, err := m.sys.unlockAttempt(ctx, m.sc, path, attemptOpts{})
	if err != nil {
		return UnlockStep{}, err
	}
	m.done = true
	m.final = r
	return UnlockStep{
		Attempt:  1,
		Result:   r,
		Occupied: r.Timeline.Total(),
		Done:     true,
		Final:    r,
	}, nil
}

// stepAttempt runs one rung of the ladder, reproducing the serial loop
// body exactly: pre-attempt verifier resync + backoff draw, a fresh link
// when no path is fixed, the attempt itself, then the retry decision.
func (m *UnlockMachine) stepAttempt(ctx context.Context) (UnlockStep, error) {
	if err := ctx.Err(); err != nil {
		return UnlockStep{}, err
	}
	attempt := m.attempt
	level, opts := m.sys.rungFor(attempt, m.rc)
	m.level = level

	var preWait time.Duration
	before := m.timeline.Total()
	if attempt > 0 {
		// Never reuse a HOTP counter: the generator advanced on every
		// attempt that reached phase 2 even when delivery half-failed,
		// so the verifier resynchronizes to the generator before the
		// next token is cut. Without this, a string of half-delivered
		// sessions walks the pair past the look-ahead window.
		m.sys.ver.Reset(m.sys.gen.Counter())
		wait := m.rc.Backoff(attempt-1, m.sys.rng)
		m.timeline.Add("resilience/backoff-wait", StepWait, "", wait)
		m.sys.now = m.sys.now.Add(wait)
		preWait = wait
	}

	path := m.fixed
	if path == nil {
		var err error
		if path, err = m.sys.sessionPath(m.sc); err != nil {
			return UnlockStep{}, err
		}
	}
	r, err := m.sys.unlockAttempt(ctx, m.sc, path, opts)
	if err != nil {
		return UnlockStep{}, err
	}
	m.attempt++
	m.attempts++
	m.timeline.Append(r.Timeline)
	m.energy.Merge(r.Energy)
	m.last = r

	st := UnlockStep{
		Attempt:  m.attempts,
		Level:    level,
		Result:   r,
		PreWait:  preWait,
		Occupied: m.timeline.Total() - before - preWait,
	}

	stop := false
	if r.Unlocked {
		if level >= DegradeRobustMode && r.Outcome == OutcomeUnlocked {
			r.Outcome = OutcomeDegradedUnlocked
		}
		stop = true
	} else if r.Outcome == OutcomeLockedOut || !retryable(r.Outcome) {
		stop = true
	} else if m.attempt > m.rc.MaxRetries {
		stop = true // ladder exhausted
	}
	if !stop {
		return st, nil
	}
	if !r.Unlocked && (retryable(r.Outcome) || r.Outcome == OutcomeLockedOut) {
		// Ladder exhausted (or keyguard locked out): the PIN fallback is
		// its own step, so the engine can charge the typing time as a
		// scheduled event.
		m.pinPending = true
		return st, nil
	}
	m.finish()
	st.Done = true
	st.Final = m.final
	return st, nil
}

// stepPIN performs the manual PIN fallback: clears lockout, resyncs the
// OTP pair, and charges the typing time.
func (m *UnlockMachine) stepPIN() UnlockStep {
	m.sys.ManualUnlock()
	m.timeline.Add("resilience/pin-entry", StepWait, "", 1500*time.Millisecond)
	m.level = DegradePIN
	last := m.last
	last.Outcome = OutcomeFallbackPIN
	last.Unlocked = false
	last.Detail = fmt.Sprintf("resilience ladder exhausted after %d attempts; manual PIN", m.attempts)
	m.finish()
	return UnlockStep{
		Attempt:  m.attempts,
		Level:    DegradePIN,
		Occupied: 1500 * time.Millisecond,
		Done:     true,
		Final:    m.final,
	}
}

// finish merges the per-attempt artifacts into the terminal result.
func (m *UnlockMachine) finish() {
	last := m.last
	last.Timeline = m.timeline
	last.Energy = m.energy
	last.Attempts = m.attempts
	last.Degradation = m.level
	m.final = last
	m.done = true
}
