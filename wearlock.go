// Package wearlock is a from-scratch reproduction of WearLock (Yi, Qin,
// Carter, Li — IEEE ICDCS 2017): automatic smartphone unlocking over a
// short-range acoustic OFDM channel between the phone's speaker and a
// paired smartwatch's microphone.
//
// The public API is a façade over the internal subsystems:
//
//   - System pairs a simulated phone and watch and runs unlock sessions
//     against physical Scenarios (distance, room, grip, activity).
//     System.Unlock(ctx, scenario, path) is the one way into a session:
//     a nil path builds the honest acoustic link, a non-nil one (say, an
//     attack path) carries every attempt, and Config.Resilience decides
//     whether failed attempts walk the retry ladder down to the PIN.
//   - Modem-level types expose the acoustic OFDM modem directly:
//     modulate bits to a waveform, push it through a simulated acoustic
//     link, demodulate, and inspect BER/SNR diagnostics.
//   - HOTP types implement the RFC 4226 one-time-password scheme the
//     protocol transmits.
//
// Quick start:
//
//	sys, err := wearlock.NewSystem(wearlock.DefaultConfig(), rng)
//	res, err := sys.Unlock(ctx, wearlock.DefaultScenario(), nil)
//	if res.Unlocked { ... }
//
// See examples/ for runnable programs and internal/experiments for the
// reproduction of every table and figure in the paper's evaluation.
package wearlock

import (
	"math/rand"

	"wearlock/internal/acoustic"
	"wearlock/internal/core"
	"wearlock/internal/keyguard"
	"wearlock/internal/motion"
	"wearlock/internal/wireless"
)

// Protocol-level types, re-exported from the core engine.
type (
	// Config selects the deployment parameters of a WearLock pairing:
	// band, control transport, BER targets, offloading, device profiles,
	// and which computation-reduction filters run.
	Config = core.Config
	// System is a paired phone + watch executing the unlocking protocol.
	System = core.System
	// Scenario describes the physical situation of one unlock attempt.
	Scenario = core.Scenario
	// Result reports a session's outcome, modem diagnostics, timeline,
	// and energy ledger.
	Result = core.Result
	// Outcome classifies how a session ended.
	Outcome = core.Outcome
	// Timeline is the simulated protocol schedule of a session.
	Timeline = core.Timeline
	// AcousticPath abstracts the speaker-to-microphone transmission; the
	// attack harness substitutes adversarial implementations.
	AcousticPath = core.AcousticPath
	// BatchSpec configures a batch of independent unlock sessions on the
	// batch-simulation engine.
	BatchSpec = core.BatchSpec
	// BatchResult aggregates a batch of unlock sessions.
	BatchResult = core.BatchResult
	// Environment is an ambient-noise preset (office, cafe, ...).
	Environment = acoustic.Environment
	// Activity labels the user's motion context.
	Activity = motion.Activity
	// Transport identifies the control-channel radio bearer.
	Transport = wireless.Transport
	// KeyguardState is the lock-screen state.
	KeyguardState = keyguard.State
)

// Session outcomes.
const (
	OutcomeUnlocked             = core.OutcomeUnlocked
	OutcomeSkipUnlocked         = core.OutcomeSkipUnlocked
	OutcomeAbortedLinkDown      = core.OutcomeAbortedLinkDown
	OutcomeAbortedMotion        = core.OutcomeAbortedMotion
	OutcomeAbortedNoiseMismatch = core.OutcomeAbortedNoiseMismatch
	OutcomeAbortedNoSignal      = core.OutcomeAbortedNoSignal
	OutcomeAbortedNoMode        = core.OutcomeAbortedNoMode
	OutcomeAbortedTiming        = core.OutcomeAbortedTiming
	OutcomeTokenMismatch        = core.OutcomeTokenMismatch
	OutcomeLockedOut            = core.OutcomeLockedOut
)

// Activities.
const (
	Sitting = motion.Sitting
	Walking = motion.Walking
	Running = motion.Running
)

// Control-channel transports.
const (
	Bluetooth = wireless.Bluetooth
	WiFi      = wireless.WiFi
)

// NewSystem pairs a phone and watch: it validates the configuration,
// negotiates the shared OTP key, and initializes the keyguard to locked.
// rng drives every stochastic element of the simulation; pass a seeded
// source for reproducible runs.
func NewSystem(cfg Config, rng *rand.Rand) (*System, error) {
	return core.NewSystem(cfg, rng)
}

// DefaultConfig returns the paper's deployed configuration: audible band,
// Bluetooth control channel, MaxBER 0.1 (0.25 under NLOS), offloading to
// a high-end phone, and all pre-filters enabled.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultScenario is the nominal use case: watch on wrist, phone in the
// other hand at 15 cm, office ambience, user sitting.
func DefaultScenario() Scenario { return core.DefaultScenario() }

// NewLinkPath wraps a simulated acoustic link as an honest transmission
// path a caller can hand to System.Unlock (or wrap in an attack path).
func NewLinkPath(link *acoustic.Link) AcousticPath { return core.NewLinkPath(link) }

// RunBatch executes a batch of independent unlock sessions across
// spec.Parallel workers; aggregates are bit-identical for every worker
// count because each session is seeded from (spec.Seed, session index)
// and results fold in session order.
func RunBatch(spec BatchSpec) (*BatchResult, error) { return core.RunBatch(spec) }

// Ambient environment presets (the field-test locations of Table I plus
// the controlled quiet room).
func QuietRoom() *Environment    { return acoustic.QuietRoom() }
func Office() *Environment       { return acoustic.Office() }
func Classroom() *Environment    { return acoustic.Classroom() }
func Cafe() *Environment         { return acoustic.Cafe() }
func GroceryStore() *Environment { return acoustic.GroceryStore() }
