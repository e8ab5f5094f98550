package core_test

import (
	"context"
	"math/rand"
	"testing"

	"wearlock/internal/acoustic"
	"wearlock/internal/core"
	"wearlock/internal/modem"
	"wearlock/internal/motion"
	"wearlock/internal/wireless"
)

// Property-style soak: across randomized physical scenarios, the protocol
// must never panic, never error on valid input, and never unlock for an
// attacker-held phone beyond the secure boundary. This is the system-level
// statement of the paper's security argument (Sec. IV-2).
func TestSoakAttackerNeverUnlocksBeyondBoundary(t *testing.T) {
	envs := []*acoustic.Environment{
		acoustic.QuietRoom(), acoustic.Office(), acoustic.Classroom(),
		acoustic.Cafe(), acoustic.GroceryStore(),
	}
	activities := motion.AllActivities()
	rng := rand.New(rand.NewSource(99))
	sys := newSystem(t, nil, 100)
	const rounds = 40
	for i := 0; i < rounds; i++ {
		sc := core.DefaultScenario()
		sc.Env = envs[rng.Intn(len(envs))]
		sc.Activity = activities[rng.Intn(len(activities))]
		sc.Distance = 1.5 + rng.Float64()*8 // always beyond the boundary
		sc.SameBody = false                 // attacker's hand
		sc.SameRoom = rng.Intn(2) == 0
		sc.SameHand = false
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("round %d (%s, %.1f m): %v", i, sc.Env.Name, sc.Distance, err)
		}
		if res.Unlocked {
			t.Fatalf("round %d: attacker unlocked at %.1f m in %s (outcome %s, BER %.3f)",
				i, sc.Distance, sc.Env.Name, res.Outcome, res.BER)
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
}

// Randomized legitimate scenarios inside the boundary must unlock with a
// usable success rate in every environment (the usability half of the
// trade-off).
func TestSoakLegitimateUsability(t *testing.T) {
	envs := []*acoustic.Environment{
		acoustic.QuietRoom(), acoustic.Office(), acoustic.Classroom(),
		acoustic.Cafe(), acoustic.GroceryStore(),
	}
	rng := rand.New(rand.NewSource(101))
	sys := newSystem(t, nil, 102)
	const rounds = 30
	unlocked := 0
	for i := 0; i < rounds; i++ {
		sc := core.DefaultScenario()
		sc.Env = envs[rng.Intn(len(envs))]
		sc.Distance = 0.1 + rng.Float64()*0.3 // hand-held range
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if res.Unlocked {
			unlocked++
			sys.Keyguard().Relock()
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
			sys.Keyguard().Relock()
		}
	}
	if float64(unlocked)/rounds < 0.7 {
		t.Errorf("legitimate success rate %d/%d — below usable", unlocked, rounds)
	}
}

// The motion skip path must never fire for an attacker-held phone: hold
// tremor against body motion scores far above the skip threshold.
func TestSkipPathNeverFiresForAttacker(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) {
		// The loosest plausible skip threshold.
		c.MotionThresholds = motion.Thresholds{Low: 0.04, High: 0.1}
	}, 103)
	for _, activity := range motion.AllActivities() {
		sc := core.DefaultScenario()
		sc.SameBody = false
		sc.Activity = activity
		for i := 0; i < 5; i++ {
			res, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				t.Fatalf("Unlock: %v", err)
			}
			if res.Outcome == core.OutcomeSkipUnlocked {
				t.Fatalf("%s: attacker unlocked via motion skip (score %.4f)", activity, res.MotionScore)
			}
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
	}
}

// The near-ultrasound (phone-phone) system configuration must work end to
// end through the protocol.
func TestNearUltrasoundSystem(t *testing.T) {
	sys := newSystem(t, func(c *core.Config) {
		c.Band = modem.BandNearUltrasound
	}, 104)
	sc := core.DefaultScenario()
	sc.Distance = 0.2
	unlocked := 0
	for i := 0; i < 4; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		if res.Unlocked {
			unlocked++
			sys.Keyguard().Relock()
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
			sys.Keyguard().Relock()
		}
	}
	if unlocked < 3 {
		t.Errorf("near-ultrasound unlocked %d/4", unlocked)
	}
}

// The WiFi control-channel configuration must work and be faster than
// Bluetooth end to end (the Config1 vs Config2 comparison of Fig. 12).
func TestWiFiTransportFaster(t *testing.T) {
	run := func(transport wireless.Transport, seed int64) (total float64, unlocks int) {
		sys := newSystem(t, func(c *core.Config) { c.Transport = transport }, seed)
		sc := core.DefaultScenario()
		for i := 0; i < 4; i++ {
			res, err := sys.Unlock(context.Background(), sc, nil)
			if err != nil {
				t.Fatalf("Unlock: %v", err)
			}
			if res.Unlocked {
				total += res.Timeline.Total().Seconds()
				unlocks++
				sys.Keyguard().Relock()
			}
			if res.Outcome == core.OutcomeLockedOut {
				sys.ManualUnlock()
			}
		}
		return total, unlocks
	}
	btTotal, btN := run(wireless.Bluetooth, 105)
	wifiTotal, wifiN := run(wireless.WiFi, 105)
	if btN == 0 || wifiN == 0 {
		t.Fatalf("unlocks bt=%d wifi=%d", btN, wifiN)
	}
	if wifiTotal/float64(wifiN) >= btTotal/float64(btN) {
		t.Errorf("WiFi mean session %.0f ms not faster than Bluetooth %.0f ms",
			wifiTotal/float64(wifiN)*1000, btTotal/float64(btN)*1000)
	}
}

// A jammer through the full protocol: sub-channel selection must relocate
// data channels and the session still unlock.
func TestProtocolSurvivesJammer(t *testing.T) {
	sys := newSystem(t, nil, 106)
	baseCfg := modem.DefaultConfig(modem.BandAudible, modem.QPSK)
	rng := rand.New(rand.NewSource(107))
	jam, err := acoustic.RandomJammer(52, 3, []float64{
		baseCfg.SubChannelHz(17), baseCfg.SubChannelHz(21),
		baseCfg.SubChannelHz(25), baseCfg.SubChannelHz(29),
	}, rng)
	if err != nil {
		t.Fatalf("RandomJammer: %v", err)
	}
	sc := core.DefaultScenario()
	sc.Env = acoustic.QuietRoom()
	sc.Jammer = jam
	unlocked := 0
	relocated := false
	defaultSet := map[int]bool{}
	for _, k := range baseCfg.DataChannels {
		defaultSet[k] = true
	}
	for i := 0; i < 5; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		if res.Unlocked {
			unlocked++
			sys.Keyguard().Relock()
		}
		for _, k := range res.DataChannels {
			if !defaultSet[k] {
				relocated = true
			}
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
	if unlocked < 3 {
		t.Errorf("unlocked %d/5 under a 3-tone jammer", unlocked)
	}
	if !relocated {
		t.Error("sub-channel selection never relocated data channels away from the jammer")
	}
}

// Result diagnostics must be populated on a successful session.
func TestResultDiagnosticsPopulated(t *testing.T) {
	sys := newSystem(t, nil, 108)
	var res *core.Result
	var err error
	for i := 0; i < 4; i++ {
		res, err = sys.Unlock(context.Background(), core.DefaultScenario(), nil)
		if err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		if res.Unlocked {
			break
		}
		if res.Outcome == core.OutcomeLockedOut {
			sys.ManualUnlock()
		}
	}
	if !res.Unlocked {
		t.Fatalf("no successful session: %s", res.Detail)
	}
	if res.Mode == 0 {
		t.Error("no mode recorded")
	}
	if res.EbN0dB <= 0 {
		t.Error("no Eb/N0 recorded")
	}
	if res.VolumeSPL <= 0 {
		t.Error("no planned volume recorded")
	}
	if len(res.DataChannels) == 0 {
		t.Error("no data channels recorded")
	}
	if res.BER < 0 {
		t.Error("no BER recorded")
	}
	if res.EstimatedDistance < 0 || res.EstimatedDistance > 1.5 {
		t.Errorf("estimated distance %.2f m for a 15 cm session", res.EstimatedDistance)
	}
	if res.NoiseSimilarity <= 0 {
		t.Error("no noise similarity recorded")
	}
	if res.MotionScore <= 0 {
		t.Error("no motion score recorded")
	}
}
