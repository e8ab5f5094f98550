// Package keyguard models the Android Keyguard service WearLock drives:
// a lock-screen state machine with failure counting and lockout. The
// WearLock controller keeps the phone unlocked while token validations
// succeed and falls back to manual authentication (PIN) after repeated
// failures (Sec. II, Sec. IV).
package keyguard

import (
	"fmt"
	"sync"
	"time"
)

// State is the lock-screen state.
type State int

// Lock states.
const (
	StateLocked State = iota + 1
	StateUnlocked
	// StateLockedOut requires manual (PIN) authentication; automatic
	// unlocking is disabled until then.
	StateLockedOut
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateLocked:
		return "locked"
	case StateUnlocked:
		return "unlocked"
	case StateLockedOut:
		return "locked-out"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// DefaultMaxFailures mirrors the paper: three consecutive failed unlock
// attempts lock the phone up.
const DefaultMaxFailures = 3

// Keyguard is the lock state machine. It is safe for concurrent use.
type Keyguard struct {
	mu          sync.Mutex
	state       State
	failures    int
	maxFailures int
	unlocks     int
	manualAuths int
	// now is the simulated-time hook for the unlock-hold window.
	unlockedAt time.Time
}

// New creates a locked keyguard with the default failure budget.
func New() *Keyguard {
	return &Keyguard{state: StateLocked, maxFailures: DefaultMaxFailures}
}

// SetMaxFailures overrides the lockout budget (must be positive).
func (k *Keyguard) SetMaxFailures(n int) error {
	if n <= 0 {
		return fmt.Errorf("keyguard: max failures %d must be positive", n)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.maxFailures = n
	return nil
}

// State returns the current lock state.
func (k *Keyguard) State() State {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state
}

// ReportSuccess records a successful token validation: the screen unlocks
// and the failure count resets. It returns an error if the keyguard is
// locked out (automatic unlocking disabled).
func (k *Keyguard) ReportSuccess(at time.Time) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.state == StateLockedOut {
		return fmt.Errorf("keyguard: locked out; manual authentication required")
	}
	k.state = StateUnlocked
	k.failures = 0
	k.unlocks++
	k.unlockedAt = at
	return nil
}

// ReportFailure records a failed unlock attempt. After maxFailures
// consecutive failures the keyguard locks out.
func (k *Keyguard) ReportFailure() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.state == StateLockedOut {
		return
	}
	k.failures++
	k.state = StateLocked
	if k.failures >= k.maxFailures {
		k.state = StateLockedOut
	}
}

// Relock returns the screen to the locked state (screen timeout or power
// button), without touching the failure count.
func (k *Keyguard) Relock() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.state == StateUnlocked {
		k.state = StateLocked
	}
}

// ManualAuthenticate models successful PIN/password entry: clears lockout
// and failure count and unlocks.
func (k *Keyguard) ManualAuthenticate(at time.Time) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.state = StateUnlocked
	k.failures = 0
	k.manualAuths++
	k.unlockedAt = at
}

// Failures returns the consecutive-failure count.
func (k *Keyguard) Failures() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.failures
}

// Stats reports lifetime counters: automatic unlocks and manual
// authentications.
func (k *Keyguard) Stats() (unlocks, manualAuths int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.unlocks, k.manualAuths
}

// Export captures the durable part of the keyguard state: the lock state
// and the consecutive-failure count. Lifetime statistics and the unlock
// timestamp are operational, not durable.
func (k *Keyguard) Export() (State, int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state, k.failures
}

// Restore loads a durably-committed lock state after a restart. A restored
// "unlocked" state is conservatively demoted to locked: the screen relocks
// on timeout anyway, and a crash must never leave a phone unlocked that
// the user did not just unlock.
func (k *Keyguard) Restore(state State, failures int) error {
	if err := CheckRestore(state, failures); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if state == StateUnlocked {
		state = StateLocked
	}
	k.state = state
	k.failures = failures
	return nil
}

// CheckRestore reports whether Restore would refuse a durable lock state:
// one it does not know, or a negative failure count.
func CheckRestore(state State, failures int) error {
	switch state {
	case StateLocked, StateUnlocked, StateLockedOut:
	default:
		return fmt.Errorf("keyguard: cannot restore unknown state %d", int(state))
	}
	if failures < 0 {
		return fmt.Errorf("keyguard: cannot restore negative failure count %d", failures)
	}
	return nil
}

// UnlockedAt returns when the screen last unlocked (zero if never).
func (k *Keyguard) UnlockedAt() time.Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.unlockedAt
}
