package core

import (
	"fmt"
	"math"
	"sync"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// Ambient-noise similarity filter (Sec. V, after Sound-Proof): during the
// RTS/CTS phase the phone self-records while the watch records, and the
// noise-only segments before the preamble are compared. Two co-located
// microphones hear the same noise field — their short-time level envelopes
// and band spectra correlate — while separated devices do not, so a low
// similarity aborts the transmission cheaply.

// DefaultNoiseSimilarityThreshold separates co-located from separated
// recordings in the simulator (co-located pairs score > 0.6, independent
// pairs near 0).
const DefaultNoiseSimilarityThreshold = 0.35

// NoiseSimilarity computes the similarity score of two simultaneous
// ambient recordings: the mean of (a) the Pearson correlation of their
// short-time energy envelopes and (b) the Pearson correlation of their
// average band spectra. Both capture "same noise field" structure while
// being robust to overall gain differences. The returned cost components
// are charged to whichever device runs the comparison.
func NoiseSimilarity(phone, watch *audio.Buffer) (float64, int64, error) {
	return noiseSimilarity(phone, watch, &noiseScratch{})
}

// noiseScratch holds noiseSimilarity's envelopes and spectra, one of each
// per recording, grown to the largest recordings seen.
type noiseScratch struct {
	env, spec [2][]float64
}

// noiseSimilarity is NoiseSimilarity with its envelopes and spectra in s.
func noiseSimilarity(phone, watch *audio.Buffer, s *noiseScratch) (float64, int64, error) {
	if phone.Rate != watch.Rate {
		return 0, 0, fmt.Errorf("core: ambient recordings at different rates %d vs %d", phone.Rate, watch.Rate)
	}
	n := phone.Len()
	if watch.Len() < n {
		n = watch.Len()
	}
	const window = 256
	if n < 4*window {
		return 0, 0, fmt.Errorf("core: ambient recordings too short (%d samples) for similarity", n)
	}
	var ops int64

	// (a) Short-time energy envelopes.
	s.env[0] = audio.SPLWindowedInto(s.env[0], &audio.Buffer{Rate: phone.Rate, Samples: phone.Samples[:n]}, window)
	s.env[1] = audio.SPLWindowedInto(s.env[1], &audio.Buffer{Rate: watch.Rate, Samples: watch.Samples[:n]}, window)
	ops += int64(2 * n)
	envCorr, err := dsp.PearsonCorrelation(s.env[0], s.env[1])
	if err != nil {
		return 0, ops, err
	}

	// (b) Average band spectra over aligned windows.
	for i, samples := range [2][]float64{phone.Samples[:n], watch.Samples[:n]} {
		spec, specOps, err := averageSpectrum(s.spec[i], samples, window)
		if err != nil {
			return 0, ops, err
		}
		s.spec[i] = spec
		ops += specOps
	}
	specCorr, err := dsp.PearsonCorrelation(s.spec[0], s.spec[1])
	if err != nil {
		return 0, ops, err
	}

	// The envelope dominates the score: two separated microphones in the
	// same KIND of room share a long-term spectral shape, but only
	// co-located microphones share the moment-to-moment level envelope
	// (the property Sound-Proof keys on).
	score := 0.75*envCorr + 0.25*specCorr
	if score < 0 {
		score = 0
	}
	return score, ops, nil
}

// inBandWindow is inBandNoiseSPL's transform length; _inBandHann is its
// analysis window, built once and read-only.
const inBandWindow = 256

var _inBandHann = sync.OnceValues(func() ([]float64, error) { return dsp.Window(dsp.WindowHann, inBandWindow) })

// inBandNoiseSPL measures the ambient noise level inside the modem's
// occupied band (the pilot span) from a noise-only recording, in dB SPL.
// The protocol plans the speaker volume from this — not from the broadband
// level — because only in-band noise competes with the sub-channels
// (Sec. III "Ambient noise measurement ... used to set proper speaker
// volume to control the transmission range").
func inBandNoiseSPL(rec *audio.Buffer, lowHz, highHz float64) (float64, int64, error) {
	if highHz <= lowHz || lowHz < 0 {
		return 0, 0, fmt.Errorf("core: invalid band [%.0f, %.0f] Hz", lowHz, highHz)
	}
	const window = inBandWindow
	if rec.Len() < window {
		return 0, 0, fmt.Errorf("core: recording of %d samples shorter than one window", rec.Len())
	}
	binHz := float64(rec.Rate) / window
	loBin := int(lowHz / binHz)
	hiBin := int(highHz / binHz)
	if loBin < 1 {
		loBin = 1
	}
	if hiBin > window/2-1 {
		hiBin = window/2 - 1
	}
	// A Hann window suppresses spectral leakage from strong out-of-band
	// components; its power gain (sum w^2 / N = 3/8) is compensated.
	win, err := _inBandHann()
	if err != nil {
		return 0, 0, err
	}
	var power float64
	windows := 0
	var ops int64
	segment := dsp.GetFloat(window)
	defer dsp.PutFloat(segment)
	rp, err := dsp.RealPlanFor(window)
	if err != nil {
		return 0, 0, err
	}
	// One pooled spectrum buffer serves all windows instead of a fresh
	// allocation per transform.
	spec := dsp.GetComplex(window)
	defer dsp.PutComplex(spec)
	for start := 0; start+window <= rec.Len(); start += window {
		copy(segment, rec.Samples[start:start+window])
		if err := dsp.ApplyWindow(segment, win); err != nil {
			return 0, ops, err
		}
		if err := rp.Forward(spec, segment); err != nil {
			return 0, ops, err
		}
		ops += window * 5
		for k := loBin; k <= hiBin; k++ {
			power += real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
		}
		windows++
	}
	// Convert accumulated bin power to an equivalent RMS amplitude: an
	// N-point FFT of a signal with RMS r has total |X|^2 = N^2 r^2 split
	// between positive and negative frequencies; the Hann window scales
	// power by 3/8.
	const hannPowerGain = 3.0 / 8.0
	meanPower := power / float64(windows) / hannPowerGain
	rms := sqrtOf(2 * meanPower / float64(window*window))
	return audio.SPLFromPressure(rms), ops, nil
}

func sqrtOf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// averageSpectrum returns the mean per-bin log-power spectrum over
// consecutive windows, restricted to bins 2..window/2 (skipping DC), in
// dst, grown when its capacity is short.
func averageSpectrum(dst, samples []float64, window int) ([]float64, int64, error) {
	numWindows := len(samples) / window
	if numWindows == 0 {
		return nil, 0, fmt.Errorf("core: segment shorter than one window")
	}
	half := window / 2
	if cap(dst) < half-2 {
		dst = make([]float64, half-2)
	}
	acc := dst[:half-2]
	clear(acc)
	var ops int64
	rp, err := dsp.RealPlanFor(window)
	if err != nil {
		return nil, 0, err
	}
	spec := dsp.GetComplex(window)
	defer dsp.PutComplex(spec)
	for w := 0; w < numWindows; w++ {
		if err := rp.Forward(spec, samples[w*window:(w+1)*window]); err != nil {
			return nil, ops, err
		}
		ops += int64(window) * 4
		for k := 2; k < half; k++ {
			p := real(spec[k])*real(spec[k]) + imag(spec[k])*imag(spec[k])
			acc[k-2] += p
		}
	}
	for i := range acc {
		acc[i] = dsp.DB(acc[i]/float64(numWindows) + 1e-30)
	}
	return acc, ops, nil
}
