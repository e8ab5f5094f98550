package attack_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"wearlock/internal/attack"
	"wearlock/internal/core"
	"wearlock/internal/keyguard"
	"wearlock/internal/modem"
	"wearlock/internal/otp"
)

func newSystem(t *testing.T, mutate func(*core.Config), seed int64) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.OTPKey = []byte("attack-test-key-0123456789ab")
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// Sec. IV-1: brute force hits the three-failure lockout almost
// immediately and essentially never guesses a 31-bit token.
func TestBruteForceLocksOut(t *testing.T) {
	key, err := otp.GenerateKey()
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	accepted, attempted, err := attack.BruteForce(ver, 1000, rng)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if accepted != 0 {
		t.Errorf("brute force accepted %d guesses", accepted)
	}
	if attempted > otp.DefaultMaxFailures {
		t.Errorf("verifier allowed %d attempts before lockout, want <= %d", attempted, otp.DefaultMaxFailures)
	}
	if !ver.LockedOut() {
		t.Error("verifier not locked out after brute force")
	}
}

// Sec. IV-2: the co-located attacker beyond ~1 m never unlocks; even the
// motion filter alone rejects a same-room grab at close range when the
// victim is moving.
func TestCoLocatedAttackFails(t *testing.T) {
	for _, distance := range []float64{1.8, 3.0} {
		sys := newSystem(t, func(c *core.Config) {
			c.EnableMotionFilter = false // give the attacker every advantage
			c.EnableNoiseFilter = false
		}, 2)
		results, err := attack.CoLocatedAttempt(sys, distance, 6)
		if err != nil {
			t.Fatalf("CoLocatedAttempt: %v", err)
		}
		for i, r := range results {
			if r.Unlocked {
				t.Errorf("distance %.1f m attempt %d unlocked (outcome %s, BER %.3f)", distance, i, r.Outcome, r.BER)
			}
			if r.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
	}
}

// A replayed stale token must be rejected: even a hypothetical
// zero-latency replay rig fails on OTP freshness, and a realistic rig is
// additionally caught by the timing window.
func TestReplayAttackFails(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) { c.EnableMotionFilter = false }, 3)
	sc := core.DefaultScenario()
	rng := rand.New(rand.NewSource(4))
	cfg := modem.DefaultConfig(sys.Config().Band, modem.QPSK)

	// The victim unlocks once while the attacker records.
	link, err := sc.AcousticLink(sys.Config().Band, cfg.SampleRate, rng)
	if err != nil {
		t.Fatalf("AcousticLink: %v", err)
	}
	recorder := &attack.RecordingPath{Inner: core.NewLinkPath(link)}
	var victim *core.Result
	for i := 0; i < 5; i++ {
		victim, err = sys.Unlock(context.Background(), sc, recorder)
		if err != nil {
			t.Fatalf("victim Unlock: %v", err)
		}
		if victim.Unlocked {
			break
		}
		if victim.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
	if !victim.Unlocked {
		t.Fatalf("victim never unlocked during recording phase: %s (%s)", victim.Outcome, victim.Detail)
	}
	if len(recorder.Recordings) < 2 {
		t.Fatalf("recorder captured %d frames, want >= 2 (probe + token)", len(recorder.Recordings))
	}
	sys.Keyguard().Relock()

	stale := recorder.Recordings[len(recorder.Recordings)-1]

	// Realistic replay rig: several hundred ms of store-and-forward.
	realistic := &attack.ReplayPath{Captured: stale, ProcessingDelay: 400 * time.Millisecond}
	res, err := sys.Unlock(context.Background(), sc, realistic)
	if err != nil {
		t.Fatalf("replay Unlock: %v", err)
	}
	if res.Unlocked {
		t.Fatal("realistic replay unlocked the phone")
	}
	if res.Outcome != core.OutcomeAbortedTiming && res.Outcome != core.OutcomeAbortedNoSignal && res.Outcome != core.OutcomeTokenMismatch && res.Outcome != core.OutcomeAbortedNoMode {
		t.Errorf("unexpected outcome %s for realistic replay", res.Outcome)
	}

	// Ideal zero-latency rig that relays phase 1 honestly: beats the
	// timing window but not the OTP freshness check.
	for i := 0; i < 4 && sys.Keyguard().State() != keyguard.StateLockedOut; i++ {
		rng2 := rand.New(rand.NewSource(40 + int64(i)))
		link2, err := sc.AcousticLink(sys.Config().Band, cfg.SampleRate, rng2)
		if err != nil {
			t.Fatalf("AcousticLink: %v", err)
		}
		ideal := &attack.ReplayPath{Captured: stale, Inner: core.NewLinkPath(link2)}
		res, err = sys.Unlock(context.Background(), sc, ideal)
		if err != nil {
			t.Fatalf("ideal replay Unlock: %v", err)
		}
		if res.Unlocked {
			t.Fatal("zero-latency replay of a stale token unlocked the phone")
		}
	}
}

// The eavesdropper CAN decode the token bits from a capture — the channel
// is insecure by assumption — but the token is worthless once consumed:
// replaying it through the verifier fails.
func TestEavesdroppedTokenIsStale(t *testing.T) {
	key := []byte("attack-test-key-0123456789ab")
	gen, err := otp.NewGenerator(key, 0)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	token, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ok, _ := ver.Verify(token); !ok {
		t.Fatal("legitimate token rejected")
	}
	// The attacker learned `token` from the acoustic channel. Replay:
	if ok, _ := ver.Verify(token); ok {
		t.Fatal("stale eavesdropped token accepted")
	}
}

// A live relay with realistic store-and-forward latency is caught by the
// timing window (Sec. IV-4: our design's line of defense against relays
// short of hardware fingerprinting).
func TestRelayAttackCaughtByTiming(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) { c.EnableMotionFilter = false }, 5)
	sc := core.DefaultScenario()
	rng := rand.New(rand.NewSource(6))
	cfg := modem.DefaultConfig(sys.Config().Band, modem.QPSK)
	link, err := sc.AcousticLink(sys.Config().Band, cfg.SampleRate, rng)
	if err != nil {
		t.Fatalf("AcousticLink: %v", err)
	}
	relay, err := attack.NewRelayPath(core.NewLinkPath(link), 300*time.Millisecond, 0, nil)
	if err != nil {
		t.Fatalf("NewRelayPath: %v", err)
	}
	res, err := sys.Unlock(context.Background(), sc, relay)
	if err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if res.Unlocked {
		t.Fatal("relayed session unlocked the phone")
	}
	if res.Outcome != core.OutcomeAbortedTiming {
		t.Errorf("outcome %s, want aborted-timing-window", res.Outcome)
	}
}

// A hypothetical sub-window relay with consumer-grade hardware degrades
// the acoustic channel enough to raise the BER — the paper's
// "fingerprinting" argument in its simplest form: the extra ADC/DAC chain
// is not transparent.
func TestRelayHardwareDegradesChannel(t *testing.T) {
	sc := core.DefaultScenario()
	cfg := modem.DefaultConfig(modem.BandAudible, modem.QPSK)
	berThrough := func(jitter float64, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		link, err := sc.AcousticLink(modem.BandAudible, cfg.SampleRate, rng)
		if err != nil {
			t.Fatalf("AcousticLink: %v", err)
		}
		var path core.AcousticPath = core.NewLinkPath(link)
		if jitter > 0 {
			path, err = attack.NewRelayPath(path, 0, jitter, rng)
			if err != nil {
				t.Fatalf("NewRelayPath: %v", err)
			}
		}
		mod, err := modem.NewModulator(cfg)
		if err != nil {
			t.Fatalf("NewModulator: %v", err)
		}
		demod, err := modem.NewDemodulator(cfg)
		if err != nil {
			t.Fatalf("NewDemodulator: %v", err)
		}
		bits := modem.RandomBits(240, rng)
		frame, err := mod.Modulate(bits)
		if err != nil {
			t.Fatalf("Modulate: %v", err)
		}
		rec, err := path.Transmit(frame, 72)
		if err != nil {
			t.Fatalf("Transmit: %v", err)
		}
		rx, err := demod.Demodulate(rec, 240)
		if err != nil {
			return 0.5
		}
		ber, err := modem.BER(rx.Bits, bits)
		if err != nil {
			t.Fatalf("BER: %v", err)
		}
		return ber
	}
	var direct, relayed float64
	const trials = 3
	for i := int64(0); i < trials; i++ {
		direct += berThrough(0, 10+i)
		relayed += berThrough(60e-6, 20+i) // cheap relay rig: 60 us RMS jitter
	}
	direct /= trials
	relayed /= trials
	if relayed <= direct+0.02 {
		t.Errorf("relay hardware BER %.4f not noticeably above direct %.4f", relayed, direct)
	}
}

// The distance-bounding extension (Sec. IV-4's proposed counter-measure)
// catches a relay whose store-and-forward latency slips under the timing
// window: 100 ms of processing reads as ~34 m of acoustic flight.
func TestDistanceBoundingCatchesFastRelay(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) {
		c.EnableMotionFilter = false
		c.EnableDistanceBounding = true
	}, 7)
	sc := core.DefaultScenario()
	rng := rand.New(rand.NewSource(8))
	cfg := modem.DefaultConfig(sys.Config().Band, modem.QPSK)
	link, err := sc.AcousticLink(sys.Config().Band, cfg.SampleRate, rng)
	if err != nil {
		t.Fatalf("AcousticLink: %v", err)
	}
	// 100 ms is under the 150 ms timing window — the relay would slip
	// through the Bluetooth-bracketed check alone.
	relay, err := attack.NewRelayPath(core.NewLinkPath(link), 100*time.Millisecond, 0, nil)
	if err != nil {
		t.Fatalf("NewRelayPath: %v", err)
	}
	res, err := sys.Unlock(context.Background(), sc, relay)
	if err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if res.Unlocked {
		t.Fatal("sub-window relay unlocked the phone")
	}
	if res.Outcome != core.OutcomeAbortedRange {
		t.Errorf("outcome %s, want aborted-distance-bound", res.Outcome)
	}
	if res.EstimatedDistance < 20 {
		t.Errorf("estimated distance %.1f m, want ~34 m for a 100 ms relay", res.EstimatedDistance)
	}
}

// Distance bounding must not harm honest close-range sessions.
func TestDistanceBoundingAllowsHonestSessions(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) {
		c.EnableDistanceBounding = true
	}, 9)
	sc := core.DefaultScenario()
	unlocked := 0
	for i := 0; i < 4; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		if res.Unlocked {
			unlocked++
			if res.EstimatedDistance < 0 || res.EstimatedDistance > 1.5 {
				t.Errorf("honest 15 cm session estimated at %.2f m", res.EstimatedDistance)
			}
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
	if unlocked < 3 {
		t.Errorf("unlocked %d/4 with distance bounding on", unlocked)
	}
}

// The acoustic channel is insecure by assumption: an eavesdropper with the
// modem parameters CAN decode the token bits from a good capture. The
// system's security never rests on channel secrecy — only on freshness.
func TestTokenFromRecordingDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cfg := modem.DefaultConfig(modem.BandAudible, modem.QPSK)
	mod, err := modem.NewModulator(cfg)
	if err != nil {
		t.Fatalf("NewModulator: %v", err)
	}
	gen, err := otp.NewGenerator([]byte("attack-test-key-0123456789ab"), 0)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	token, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	coded, err := modem.EncodeRepetition(otp.TokenBits(token), modem.DefaultRepetition)
	if err != nil {
		t.Fatalf("EncodeRepetition: %v", err)
	}
	frame, err := mod.Modulate(coded)
	if err != nil {
		t.Fatalf("Modulate: %v", err)
	}
	sc := core.DefaultScenario()
	link, err := sc.AcousticLink(modem.BandAudible, cfg.SampleRate, rng)
	if err != nil {
		t.Fatalf("AcousticLink: %v", err)
	}
	rec, err := link.Transmit(frame, 75)
	if err != nil {
		t.Fatalf("Transmit: %v", err)
	}
	got, err := attack.TokenFromRecording(rec, cfg, modem.DefaultRepetition)
	if err != nil {
		t.Fatalf("TokenFromRecording: %v", err)
	}
	if got != token {
		t.Errorf("eavesdropper decoded %08x, transmitted %08x (repetition should have corrected residual errors)", got, token)
	}
}

func TestAttackConstructorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	if _, _, err := attack.BruteForce(nil, 10, rng); err == nil {
		t.Error("BruteForce accepted nil verifier")
	}
	key := []byte("attack-test-key-0123456789ab")
	ver, err := otp.NewVerifier(key, 0)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, _, err := attack.BruteForce(ver, 10, nil); err == nil {
		t.Error("BruteForce accepted nil rng")
	}
	if _, err := attack.NewRelayPath(nil, 0, 0, nil); err == nil {
		t.Error("NewRelayPath accepted nil inner path")
	}
	if _, err := attack.NewRelayPath(&attack.ReplayPath{}, 0, 1e-5, nil); err == nil {
		t.Error("NewRelayPath accepted jitter without rng")
	}
	empty := &attack.ReplayPath{}
	if _, err := empty.Transmit(nil, 0); err == nil {
		t.Error("ReplayPath with no capture transmitted")
	}
	if _, err := attack.CoLocatedAttempt(nil, 1, 1); err == nil {
		t.Error("CoLocatedAttempt accepted nil system")
	}
}
