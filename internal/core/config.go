package core

import (
	"fmt"
	"time"

	"wearlock/internal/device"
	"wearlock/internal/modem"
	"wearlock/internal/motion"
	"wearlock/internal/wireless"
)

// Config selects the WearLock deployment parameters: band, control
// transport, BER targets, offloading, device profiles, and which
// computation-reduction filters run (Sec. V).
type Config struct {
	Band      modem.Band
	Transport wireless.Transport

	// MaxBER is the adaptive-modulation constraint: the chosen mode's
	// predicted BER at the measured Eb/N0 must stay under it (Sec. III-7).
	MaxBER float64
	// NLOSRelaxedMaxBER replaces MaxBER when the delay-spread detector
	// flags body blocking; the case study relaxes to 0.25.
	NLOSRelaxedMaxBER float64

	// Offload ships recordings from the watch to the phone and runs the
	// heavy DSP there (Sec. V "Computation Offloading").
	Offload bool
	// Phone and Watch are the device profiles executing each side.
	Phone device.Profile
	Watch device.Profile

	// Pre-filters (Sec. V "Computation Reduction").
	EnableMotionFilter        bool
	EnableNoiseFilter         bool
	EnableSubChannelSelection bool

	// ModeTable holds the BER-vs-Eb/N0 calibration for mode selection.
	ModeTable *modem.ModeTable
	// MotionThresholds are Alg. 1's (dl, dh).
	MotionThresholds motion.Thresholds
	// NoiseSimilarityThreshold gates the Sound-Proof-style filter.
	NoiseSimilarityThreshold float64
	// NLOSThreshold is tau* for the RMS-delay-spread NLOS detector, in
	// seconds. Zero uses modem.DefaultNLOSThreshold.
	NLOSThreshold float64

	// TargetRange is the intended secure boundary in meters; the speaker
	// volume is set so a receiver inside this range clears the minimum
	// SNR (Sec. III "How adaptive modulation works").
	TargetRange float64

	// TimingSlack is the tolerance of the replay timing window: extra
	// acoustic-path latency beyond it aborts the session (Sec. IV).
	TimingSlack time.Duration

	// Repetition is the channel-coding repetition factor protecting the
	// OTP bits (odd; the rc term of the data-rate formula in Sec. III-7).
	Repetition int

	// EnableDistanceBounding turns on the relay counter-measure the
	// paper proposes as future work (Sec. IV-4): estimate the acoustic
	// time of flight from the preamble's position in the Bluetooth-
	// bracketed recording and abort when the implied distance exceeds
	// the secure boundary. A store-and-forward relay cannot avoid
	// adding its processing delay to the flight time.
	EnableDistanceBounding bool

	// OTPKey optionally fixes the shared HOTP secret. Leave nil in
	// deployments (a fresh key is drawn from crypto/rand at pairing);
	// experiments and tests set it so whole sessions are reproducible
	// from a seed.
	OTPKey []byte

	// Resilience parameterizes the retry/degradation policy Unlock walks.
	// The zero value (disabled) keeps the classic single-attempt behavior
	// everywhere.
	Resilience ResilienceConfig
}

// DefaultConfig returns the paper's deployed configuration: audible band
// (phone-watch pair), Bluetooth control channel, MaxBER 0.1 relaxed to
// 0.25 under NLOS, offloading enabled onto a high-end phone, all filters
// on, 1 m secure boundary.
func DefaultConfig() Config {
	return Config{
		Band:                      modem.BandAudible,
		Transport:                 wireless.Bluetooth,
		MaxBER:                    0.1,
		NLOSRelaxedMaxBER:         0.25,
		Offload:                   true,
		Phone:                     device.Nexus6(),
		Watch:                     device.Moto360(),
		EnableMotionFilter:        true,
		EnableNoiseFilter:         true,
		EnableSubChannelSelection: true,
		ModeTable:                 modem.DefaultModeTable(),
		MotionThresholds:          motion.DefaultThresholds(),
		NoiseSimilarityThreshold:  DefaultNoiseSimilarityThreshold,
		TargetRange:               1.0,
		TimingSlack:               150 * time.Millisecond,
		Repetition:                modem.DefaultRepetition,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.Band != modem.BandAudible && c.Band != modem.BandNearUltrasound {
		return fmt.Errorf("core: invalid band %d", int(c.Band))
	}
	if !c.Transport.Valid() {
		return fmt.Errorf("core: invalid transport %d", int(c.Transport))
	}
	if c.MaxBER <= 0 || c.MaxBER >= 1 {
		return fmt.Errorf("core: MaxBER %.3f outside (0, 1)", c.MaxBER)
	}
	if c.NLOSRelaxedMaxBER < c.MaxBER || c.NLOSRelaxedMaxBER >= 1 {
		return fmt.Errorf("core: NLOSRelaxedMaxBER %.3f must be in [MaxBER, 1)", c.NLOSRelaxedMaxBER)
	}
	if err := c.Phone.Validate(); err != nil {
		return err
	}
	if err := c.Watch.Validate(); err != nil {
		return err
	}
	if c.ModeTable == nil {
		return fmt.Errorf("core: missing mode table")
	}
	if c.EnableMotionFilter {
		if err := c.MotionThresholds.Validate(); err != nil {
			return err
		}
	}
	if c.TargetRange <= 0 {
		return fmt.Errorf("core: target range %.2f m must be positive", c.TargetRange)
	}
	if c.TimingSlack <= 0 {
		return fmt.Errorf("core: timing slack must be positive")
	}
	if c.Repetition <= 0 || c.Repetition%2 == 0 {
		return fmt.Errorf("core: repetition factor %d must be odd and positive", c.Repetition)
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	return nil
}
