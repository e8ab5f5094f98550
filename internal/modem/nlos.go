package modem

import (
	"fmt"
	"math"

	"wearlock/internal/audio"
)

// NLOS detection (Sec. III "NLOS filtering"): when a body blocks the direct
// path, energy arrives via reflections and the preamble's delay profile
// spreads out. WearLock approximates the delay profile with the preamble
// cross-correlation around the detected onset and computes the RMS delay
// spread
//
//	tau_rms = sqrt( sum_n (t_n - tau_hat)^2 A(t_n) / sum_n A(t_n) )
//
// with A the delay profile and tau_hat its first moment. A spread beyond a
// threshold tau* indicates severe body blocking.

// DefaultNLOSThreshold is the default tau* in seconds. LOS spreads in the
// simulator measure well under 2 ms; NLOS body blocking pushes the spread
// past 3 ms.
const DefaultNLOSThreshold = 2.5e-3

// DelayProfileWindow is how far past the detected onset the delay profile
// extends, in seconds. Indoor reflections of interest arrive within ~20 ms.
const DelayProfileWindow = 0.020

// preambleDelayProfile approximates the channel delay profile: the
// squared raw matched-filter (cross-correlation) output of the received
// signal against the known preamble over a window starting at the
// detected onset, normalized by its peak. Raw correlation is used
// deliberately — each tap's height is then proportional to that path's
// amplitude, while ambient noise stays near the floor at any workable
// SNR. The correlation runs against the shared pre-transformed preamble
// template into ws.scores; the profile lands in ws.profile, which the
// probe analysis hands out.
func (d *Demodulator) preambleDelayProfile(rec *audio.Buffer, det *Detection, ws *RxWorkspace) ([]float64, Cost, error) {
	var cost Cost
	window := int(DelayProfileWindow * float64(rec.Rate))
	start := det.PreambleStart
	end := start + window + d.preamble.Len()
	if end > rec.Len() {
		end = rec.Len()
	}
	if end-start < d.preamble.Len() {
		start = end - d.preamble.Len()
		if start < 0 {
			start = 0
		}
	}
	region := rec.Samples[start:end]
	if len(region) < d.preamble.Len() {
		return nil, cost, fmt.Errorf("modem: delay-profile region of %d samples shorter than preamble %d", len(region), d.preamble.Len())
	}
	ws.scores = growFloat(ws.scores, d.corr.OutLen(len(region)))
	err := d.corr.CrossCorrelate(ws.scores, region, &ws.corr)
	cost.CorrelationMACs += correlationCost(len(region), d.preamble.Len())
	if err != nil {
		return nil, cost, err
	}
	ws.profile = growFloat(ws.profile, len(ws.scores))
	profile := ws.profile
	var peak float64
	for i, s := range ws.scores {
		profile[i] = s * s // power-like profile
		if profile[i] > peak {
			peak = profile[i]
		}
	}
	if peak > 0 {
		for i := range profile {
			profile[i] /= peak
		}
	}
	return profile, cost, nil
}

// RMSDelaySpread computes tau_rms in seconds from a delay profile sampled
// at the given rate. Profile bins below 10% of the peak are treated as
// noise and excluded, matching the paper's "approximate delay profile".
func RMSDelaySpread(profile []float64, sampleRate int) float64 {
	if len(profile) == 0 || sampleRate <= 0 {
		return 0
	}
	var peak float64
	for _, a := range profile {
		if a > peak {
			peak = a
		}
	}
	if peak <= 0 {
		return 0
	}
	floor := 0.1 * peak
	var sumA, sumTA float64
	for n, a := range profile {
		if a < floor {
			continue
		}
		t := float64(n) / float64(sampleRate)
		sumA += a
		sumTA += t * a
	}
	if sumA == 0 {
		return 0
	}
	tauHat := sumTA / sumA
	var sumSq float64
	for n, a := range profile {
		if a < floor {
			continue
		}
		t := float64(n) / float64(sampleRate)
		d := t - tauHat
		sumSq += d * d * a
	}
	return math.Sqrt(sumSq / sumA)
}

// IsNLOS applies the tau* threshold to a measured RMS delay spread.
func IsNLOS(rmsDelaySpread, threshold float64) bool {
	if threshold <= 0 {
		threshold = DefaultNLOSThreshold
	}
	return rmsDelaySpread > threshold
}
