package modem

import (
	"fmt"
	"math"

	"wearlock/internal/dsp"
)

// PilotSNR computes the pilot-based SNR estimate of Eq. 3:
//
//	PSNR = ( E[|X(k)|^2, k in P] - E[|X(k)|^2, k in N] ) / E[|X(k)|^2, k in N]
//
// where P is the pilot sub-channel set and N the null sub-channel set of
// the configuration. The result is a linear power ratio; use dsp.DB for
// decibels.
func PilotSNR(spectrum []complex128, cfg Config) (float64, error) {
	return pilotSNRWith(spectrum, cfg.PilotChannels, cfg.NullChannels())
}

// pilotSNRWith is PilotSNR with the null-channel set precomputed, so the
// per-symbol hot path skips rebuilding it (NullChannels allocates a map
// and slice per call).
func pilotSNRWith(spectrum []complex128, pilotChannels, nulls []int) (float64, error) {
	if len(nulls) == 0 {
		return 0, fmt.Errorf("modem: configuration has no null channels for noise estimation")
	}
	pilotPower, err := meanBinPower(spectrum, pilotChannels)
	if err != nil {
		return 0, err
	}
	noisePower, err := meanBinPower(spectrum, nulls)
	if err != nil {
		return 0, err
	}
	if noisePower <= 0 {
		return math.Inf(1), nil
	}
	snr := (pilotPower - noisePower) / noisePower
	if snr < 0 {
		snr = 0
	}
	return snr, nil
}

func meanBinPower(spectrum []complex128, bins []int) (float64, error) {
	if len(bins) == 0 {
		return 0, fmt.Errorf("modem: empty bin set")
	}
	var sum float64
	for _, k := range bins {
		if k < 0 || k >= len(spectrum) {
			return 0, fmt.Errorf("modem: bin %d outside spectrum of %d bins", k, len(spectrum))
		}
		v := spectrum[k]
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(bins)), nil
}

// EbN0FromPSNR converts a linear carrier-to-noise estimate into the
// normalized per-bit SNR the adaptive-modulation table is indexed by:
//
//	Eb/N0 = C/N * B/R
//
// with B the occupied bandwidth and R the configured data rate (Sec. III
// "Pilot-based SNR indicator"). The result is in dB.
func EbN0FromPSNR(psnr float64, cfg Config) float64 {
	if psnr <= 0 {
		return math.Inf(-1)
	}
	rate := cfg.DataRate()
	if rate <= 0 {
		return math.Inf(-1)
	}
	bandwidth := cfg.OccupiedBandwidthHz()
	return dsp.DB(psnr * bandwidth / rate)
}
