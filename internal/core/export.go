package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"wearlock/internal/keyguard"
	"wearlock/internal/otp"
)

// DeviceExport is the durable snapshot of one paired phone+watch System:
// the pairing key, both HOTP counters, the verifier's failure budget, the
// keyguard state machine, and the simulated clock. It is everything the
// store layer must persist for a restarted daemon to rebuild the device
// without desynchronizing the token stream.
type DeviceExport struct {
	Key           []byte         `json:"key"`
	GenCounter    uint64         `json:"gen_counter"`
	VerCounter    uint64         `json:"ver_counter"`
	VerFailures   int            `json:"ver_failures"`
	VerLockedOut  bool           `json:"ver_locked_out"`
	GuardState    keyguard.State `json:"guard_state"`
	GuardFailures int            `json:"guard_failures"`
	NowUnixNano   int64          `json:"now_unix_nano"`
}

// ExportState captures the system's durable state at a phase boundary.
// Callers must not invoke it concurrently with an unlock session on the
// same System (the service layer serializes per device).
func (s *System) ExportState() DeviceExport {
	ex := DeviceExport{Key: make([]byte, 0, len(s.key))}
	s.ExportStateInto(&ex)
	return ex
}

// ExportStateInto is ExportState into *ex, copying the key into ex.Key's
// storage, so a caller exporting again and again allocates nothing.
func (s *System) ExportStateInto(ex *DeviceExport) {
	vs := s.ver.Export()
	gs, gf := s.guard.Export()
	*ex = DeviceExport{
		Key:           append(ex.Key[:0], s.key...),
		GenCounter:    s.gen.Counter(),
		VerCounter:    vs.Counter,
		VerFailures:   vs.Failures,
		VerLockedOut:  vs.LockedOut,
		GuardState:    gs,
		GuardFailures: gf,
		NowUnixNano:   s.now.UnixNano(),
	}
}

// CheckRestore reports whether a system NewSystem(cfg, …) has just paired
// would refuse to restore ex once its counted random stream is moved to
// draw position draws: a record without a pairing key, a keyguard state
// or failure count the keyguard cannot restore, a negative verifier
// failure count, or a draw position behind the draws pairing consumed.
// Those are all the ways SkipTo and RestoreState can fail on a freshly
// paired system (its counters are at zero, so forward-only cannot), so a
// record that passes can be restored later with no error path.
// RestoreState runs the same record check.
func CheckRestore(cfg Config, ex DeviceExport, draws uint64) error {
	if paired := pairingDraws(cfg); draws < paired {
		return fmt.Errorf("core: restore at draw %d precedes the %d draws pairing consumes", draws, paired)
	}
	return ex.check()
}

// pairingDraws is how many values of its random source NewSystem draws:
// one per key byte (rand.Intn(256) is one source draw), none when the
// deployment fixes the key.
func pairingDraws(cfg Config) uint64 {
	if cfg.OTPKey != nil {
		return 0
	}
	return otp.KeySize
}

// check is the part of CheckRestore that depends on the record alone.
func (ex DeviceExport) check() error {
	if len(ex.Key) == 0 {
		return fmt.Errorf("core: restore without a pairing key")
	}
	if ex.VerFailures < 0 {
		return fmt.Errorf("core: cannot restore negative verifier failure count %d", ex.VerFailures)
	}
	return keyguard.CheckRestore(ex.GuardState, ex.GuardFailures)
}

// RestoreState loads a durably-committed export into the system. It
// refuses the records CheckRestore refuses before changing anything.
//
// When the export carries the same pairing key the system already holds,
// counters may only move forward (a backward restore would re-accept
// already-spent tokens) and the verifier is armed with the widened
// post-recovery look-ahead. When the key differs, the export is a
// re-pairing: the generator and verifier are rebuilt around the new key
// at the exported counters, and forward-only does not apply because
// tokens from the old key cannot verify under the new one.
func (s *System) RestoreState(ex DeviceExport, resyncLookAhead int) error {
	if err := ex.check(); err != nil {
		return err
	}
	vs := otp.VerifierState{Counter: ex.VerCounter, Failures: ex.VerFailures, LockedOut: ex.VerLockedOut}
	if bytes.Equal(ex.Key, s.key) {
		if err := s.gen.Advance(ex.GenCounter); err != nil {
			return err
		}
		if err := s.ver.Restore(vs, resyncLookAhead); err != nil {
			return err
		}
	} else {
		gen, err := otp.NewGenerator(ex.Key, ex.GenCounter)
		if err != nil {
			return err
		}
		ver, err := otp.NewVerifier(ex.Key, 0)
		if err != nil {
			return err
		}
		if err := ver.Restore(vs, resyncLookAhead); err != nil {
			return err
		}
		key := make([]byte, len(ex.Key))
		copy(key, ex.Key)
		s.key, s.gen, s.ver = key, gen, ver
	}
	if err := s.guard.Restore(ex.GuardState, ex.GuardFailures); err != nil {
		return err
	}
	if ex.NowUnixNano > 0 {
		if at := time.Unix(0, ex.NowUnixNano); at.After(s.now) {
			s.now = at
		}
	}
	return nil
}

// RebuildSystem materializes a System directly from an export: the exact
// in-memory state a system holding this export would have, without
// replaying the sessions that produced it. Unlike NewSystem, the pairing
// key comes from the export and no bytes are drawn from rng — the caller
// positions rng (typically a replayed sim.CountingSource) at the stream
// offset the export was taken at, so the rebuilt system's next random
// draw is the same draw the original would have made.
//
// The verifier is restored with zero extra look-ahead, so its acceptance
// window is exactly the organic one; keyguard.Restore canonicalizes a
// transient Unlocked state to Locked, which is behaviorally identical for
// sessions (only LockedOut changes protocol behavior).
func RebuildSystem(cfg Config, rng *rand.Rand, ex DeviceExport) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: system requires a random source")
	}
	if len(ex.Key) == 0 {
		return nil, fmt.Errorf("core: rebuild without a pairing key")
	}
	key := make([]byte, len(ex.Key))
	copy(key, ex.Key)
	gen, err := otp.NewGenerator(key, ex.GenCounter)
	if err != nil {
		return nil, err
	}
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		return nil, err
	}
	vs := otp.VerifierState{Counter: ex.VerCounter, Failures: ex.VerFailures, LockedOut: ex.VerLockedOut}
	if err := ver.Restore(vs, 0); err != nil {
		return nil, err
	}
	guard := keyguard.New()
	if err := guard.Restore(ex.GuardState, ex.GuardFailures); err != nil {
		return nil, err
	}
	now := time.Unix(1700000000, 0)
	if ex.NowUnixNano > 0 {
		now = time.Unix(0, ex.NowUnixNano)
	}
	return &System{
		cfg:   cfg,
		key:   key,
		gen:   gen,
		ver:   ver,
		guard: guard,
		rng:   rng,
		now:   now,
	}, nil
}

// Repair re-pairs the device with a fresh key at counter zero — the
// operator action behind "re-pair required" after the store detects
// corruption affecting this device. Old tokens cannot verify under the
// new key, so a corrupted (possibly regressed) counter never becomes a
// replay window.
func (s *System) Repair() error {
	key := make([]byte, otp.KeySize)
	for i := range key {
		key[i] = byte(s.rng.Intn(256))
	}
	gen, err := otp.NewGenerator(key, 0)
	if err != nil {
		return err
	}
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		return err
	}
	s.key, s.gen, s.ver = key, gen, ver
	return nil
}
