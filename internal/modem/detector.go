package modem

import (
	"fmt"
	"math"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// DetectorConfig tunes the signal-detection front end (Sec. III-4).
type DetectorConfig struct {
	// EnergyWindow is the window length (samples) of the energy-based
	// silence detector. Zero defaults to the FFT size.
	EnergyWindow int
	// EnergyMarginDB is how far above the measured noise floor a window's
	// SPL must rise to be considered a candidate signal.
	EnergyMarginDB float64
	// CorrelationThreshold is the minimum normalized cross-correlation
	// peak accepted as a preamble match; the paper aborts below 0.05.
	CorrelationThreshold float64
	// MinProminence is the minimum ratio of the correlation peak to the
	// largest score outside the peak's multipath neighborhood. A
	// 256-sample template correlates against pure noise at
	// ~1/sqrt(256) ~ 0.06 at MANY lags, so a raw threshold alone cannot
	// reject noise; a genuine chirp produces exactly one peak cluster
	// (direct path plus nearby echoes) while noise produces equal-height
	// peaks everywhere.
	MinProminence float64
	// BandLowHz/BandHighHz restrict the energy gate to the occupied
	// band via windowed FFT band power. Zero values fall back to
	// broadband RMS levels.
	BandLowHz  float64
	BandHighHz float64
}

// DefaultDetectorConfig mirrors the paper's operating point.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		EnergyWindow:         DefaultFFTSize,
		EnergyMarginDB:       6,
		CorrelationThreshold: 0.05,
		MinProminence:        1.4,
	}
}

// Detection reports where a frame was found in a recording.
type Detection struct {
	// PreambleStart is the sample index of the chirp preamble onset
	// (coarse time-domain synchronization).
	PreambleStart int
	// Score is the peak normalized cross-correlation value.
	Score float64
	// NoiseFloorSPL is the ambient level measured on the recording before
	// the detected signal region.
	NoiseFloorSPL float64
	// SignalSPL is the level measured over the detected signal region.
	SignalSPL float64
	// SearchOffset is where the energy detector started the correlation
	// search (for diagnostics).
	SearchOffset int
}

// ErrNoSignal is returned when the recording never rises above the silence
// threshold or no preamble correlates above threshold.
type ErrNoSignal struct {
	Reason string
}

// Error implements error.
func (e *ErrNoSignal) Error() string {
	return fmt.Sprintf("modem: no signal detected: %s", e.Reason)
}

// DetectPreamble locates the frame preamble inside a recording using the
// two-stage front end: an energy-based silence gate followed by normalized
// cross-correlation against the known chirp. The returned cost covers the
// DSP work performed.
func DetectPreamble(rec *audio.Buffer, preamble *audio.Buffer, cfg DetectorConfig) (*Detection, Cost, error) {
	var cost Cost
	if rec.Len() < preamble.Len() {
		return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("recording of %d samples shorter than preamble %d", rec.Len(), preamble.Len())}
	}
	window := cfg.EnergyWindow
	if window <= 0 {
		window = DefaultFFTSize
	}

	// Stage 1: energy-based silence detection, measured inside the
	// occupied band when band edges are configured. The first window
	// sets the initial noise-floor estimate, refined over subsequent
	// quiet windows.
	levels, levelCost, err := bandLevels(rec, window, cfg.BandLowHz, cfg.BandHighHz)
	cost.Add(levelCost)
	if err != nil {
		return nil, cost, fmt.Errorf("modem: energy detection: %w", err)
	}
	if len(levels) == 0 {
		return nil, cost, &ErrNoSignal{Reason: "recording shorter than one energy window"}
	}
	noiseFloor := levels[0]
	onsetWindow := -1
	for i, level := range levels {
		if level > noiseFloor+cfg.EnergyMarginDB {
			onsetWindow = i
			break
		}
		// Exponential floor tracking over quiet windows.
		noiseFloor = 0.9*noiseFloor + 0.1*level
	}
	// The energy gate is an optimization, not a gatekeeper: under a
	// steady interferer (tone jammer, dense babble) the floor estimate
	// absorbs the signal level and no onset stands out. Fall back to
	// searching the whole recording; the correlation threshold and
	// prominence checks below still reject noise-only recordings.
	searchStart := 0
	if onsetWindow >= 0 {
		// Start one window early so the true onset is inside the search
		// region. The search still runs to the end of the recording: an
		// energy gate that fires early (an ambient transient) must not
		// hide a later frame.
		searchStart = (onsetWindow - 1) * window
		if searchStart < 0 {
			searchStart = 0
		}
	}
	region := rec.Samples[searchStart:]
	if len(region) < preamble.Len() {
		return nil, cost, &ErrNoSignal{Reason: "signal onset too close to end of recording"}
	}
	scores, err := dsp.NormalizedCrossCorrelate(region, preamble.Samples)
	cost.CorrelationMACs += correlationCost(len(region), preamble.Len())
	if err != nil {
		return nil, cost, fmt.Errorf("modem: preamble correlation: %w", err)
	}
	lag, peak, err := dsp.PeakLag(scores)
	if err != nil {
		return nil, cost, fmt.Errorf("modem: preamble correlation: %w", err)
	}
	if peak < cfg.CorrelationThreshold {
		return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("correlation peak %.4f below threshold %.4f", peak, cfg.CorrelationThreshold)}
	}
	// The ambient reference region: everything before the energy onset,
	// or — when the energy gate found nothing — everything before the
	// correlation peak itself.
	headEnd := searchStart
	if headEnd < 2*preamble.Len() {
		headEnd = searchStart + lag - preamble.Len()/4
	}
	if headEnd > rec.Len() {
		headEnd = rec.Len()
	}
	if cfg.MinProminence > 0 && headEnd >= 2*preamble.Len() {
		// Compare the peak against the template's correlation with the
		// ambient-only head of the recording. Noise correlates with a
		// 256-sample chirp at ~1/sqrt(256) at many lags; a genuine
		// preamble must stand well above that floor. Pure-noise
		// recordings fail this ratio because their "peak" matches their
		// own ambient floor.
		head := rec.Samples[:headEnd]
		noiseScores, err := dsp.NormalizedCrossCorrelate(head, preamble.Samples)
		cost.CorrelationMACs += correlationCost(len(head), preamble.Len())
		if err == nil && len(noiseScores) > 0 {
			var noiseRef float64
			for _, s := range noiseScores {
				if a := math.Abs(s); a > noiseRef {
					noiseRef = a
				}
			}
			if noiseRef > 0 && peak/noiseRef < cfg.MinProminence {
				return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("correlation peak %.4f lacks prominence (%.2fx ambient floor, need %.2fx)", peak, peak/noiseRef, cfg.MinProminence)}
			}
		}
	}
	start := searchStart + lag

	det := &Detection{
		PreambleStart: start,
		Score:         peak,
		NoiseFloorSPL: noiseFloor,
		SearchOffset:  searchStart,
	}
	sigEnd := start + preamble.Len()
	if sigEnd > rec.Len() {
		sigEnd = rec.Len()
	}
	if sig, err := rec.Slice(start, sigEnd); err == nil {
		det.SignalSPL = audio.SPL(sig)
		cost.ScalarOps += int64(sig.Len())
	}
	return det, cost, nil
}

// detectPreambleInto is the demodulator's allocation-free preamble search:
// the same two-stage front end as DetectPreamble, but the normalized
// correlation runs against the shared pre-transformed preamble template
// (d.corr) and every buffer is workspace-owned. The returned Detection
// aliases the workspace. Decisions and scores are bit-identical to
// DetectPreamble.
func (d *Demodulator) detectPreambleInto(rec *audio.Buffer, ws *RxWorkspace) (*Detection, Cost, error) {
	var cost Cost
	preambleLen := d.preamble.Len()
	if rec.Len() < preambleLen {
		return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("recording of %d samples shorter than preamble %d", rec.Len(), preambleLen)}
	}
	cfg := d.detector
	window := cfg.EnergyWindow
	if window <= 0 {
		window = DefaultFFTSize
	}

	levels, levelCost, err := d.bandLevelsInto(ws, rec, window, cfg.BandLowHz, cfg.BandHighHz)
	cost.Add(levelCost)
	if err != nil {
		return nil, cost, fmt.Errorf("modem: energy detection: %w", err)
	}
	if len(levels) == 0 {
		return nil, cost, &ErrNoSignal{Reason: "recording shorter than one energy window"}
	}
	noiseFloor := levels[0]
	onsetWindow := -1
	for i, level := range levels {
		if level > noiseFloor+cfg.EnergyMarginDB {
			onsetWindow = i
			break
		}
		// Exponential floor tracking over quiet windows.
		noiseFloor = 0.9*noiseFloor + 0.1*level
	}
	searchStart := 0
	if onsetWindow >= 0 {
		searchStart = (onsetWindow - 1) * window
		if searchStart < 0 {
			searchStart = 0
		}
	}
	region := rec.Samples[searchStart:]
	if len(region) < preambleLen {
		return nil, cost, &ErrNoSignal{Reason: "signal onset too close to end of recording"}
	}
	ws.scores = growFloat(ws.scores, d.corr.OutLen(len(region)))
	err = d.corr.Normalized(ws.scores, region, &ws.corr)
	cost.CorrelationMACs += correlationCost(len(region), preambleLen)
	if err != nil {
		return nil, cost, fmt.Errorf("modem: preamble correlation: %w", err)
	}
	lag, peak, err := dsp.PeakLag(ws.scores)
	if err != nil {
		return nil, cost, fmt.Errorf("modem: preamble correlation: %w", err)
	}
	if peak < cfg.CorrelationThreshold {
		return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("correlation peak %.4f below threshold %.4f", peak, cfg.CorrelationThreshold)}
	}
	headEnd := searchStart
	if headEnd < 2*preambleLen {
		headEnd = searchStart + lag - preambleLen/4
	}
	if headEnd > rec.Len() {
		headEnd = rec.Len()
	}
	if cfg.MinProminence > 0 && headEnd >= 2*preambleLen {
		head := rec.Samples[:headEnd]
		ws.scores = growFloat(ws.scores, d.corr.OutLen(len(head)))
		err := d.corr.Normalized(ws.scores, head, &ws.corr)
		cost.CorrelationMACs += correlationCost(len(head), preambleLen)
		if err == nil && len(ws.scores) > 0 {
			var noiseRef float64
			for _, s := range ws.scores {
				if a := math.Abs(s); a > noiseRef {
					noiseRef = a
				}
			}
			if noiseRef > 0 && peak/noiseRef < cfg.MinProminence {
				return nil, cost, &ErrNoSignal{Reason: fmt.Sprintf("correlation peak %.4f lacks prominence (%.2fx ambient floor, need %.2fx)", peak, peak/noiseRef, cfg.MinProminence)}
			}
		}
	}
	start := searchStart + lag

	ws.det = Detection{
		PreambleStart: start,
		Score:         peak,
		NoiseFloorSPL: noiseFloor,
		SearchOffset:  searchStart,
	}
	sigEnd := start + preambleLen
	if sigEnd > rec.Len() {
		sigEnd = rec.Len()
	}
	if start <= sigEnd {
		sig := rec.Samples[start:sigEnd]
		ws.det.SignalSPL = audio.SPLOf(sig)
		cost.ScalarOps += int64(len(sig))
	}
	return &ws.det, cost, nil
}

// bandLevelsInto is bandLevels with workspace-owned buffers and the
// real-input FFT fast path; levels land in ws.levels. Bit-identical to
// bandLevels.
func (d *Demodulator) bandLevelsInto(ws *RxWorkspace, rec *audio.Buffer, window int, lowHz, highHz float64) ([]float64, Cost, error) {
	var cost Cost
	if lowHz <= 0 || highHz <= lowHz {
		cost.ScalarOps += int64(rec.Len())
		if window <= 0 || rec.Len() < window {
			return nil, cost, nil
		}
		numWindows := rec.Len() / window
		ws.levels = growFloat(ws.levels, numWindows)
		for i := 0; i < numWindows; i++ {
			ws.levels[i] = audio.SPLOf(rec.Samples[i*window : (i+1)*window])
		}
		return ws.levels, cost, nil
	}
	if window <= 0 || rec.Len() < window {
		return nil, cost, nil
	}
	rplan, err := dsp.RealPlanFor(dsp.NextPow2(window))
	if err != nil {
		return nil, cost, err
	}
	n := rplan.Size()
	binHz := float64(rec.Rate) / float64(n)
	loBin := int(lowHz / binHz)
	hiBin := int(highHz / binHz)
	if loBin < 1 {
		loBin = 1
	}
	if hiBin > n/2-1 {
		hiBin = n/2 - 1
	}
	ws.fftBuf = growComplex(ws.fftBuf, n)
	ws.fwin = growFloat(ws.fwin, n)
	buf := ws.fftBuf[:n]
	fwin := ws.fwin[:n]
	for i := window; i < n; i++ {
		fwin[i] = 0
	}
	numWindows := rec.Len() / window
	ws.levels = growFloat(ws.levels, numWindows)
	for w := 0; w < numWindows; w++ {
		copy(fwin[:window], rec.Samples[w*window:])
		if err := rplan.Forward(buf, fwin); err != nil {
			return nil, cost, err
		}
		cost.FFTButterflies += fftCost(n)
		var power float64
		for k := loBin; k <= hiBin; k++ {
			power += real(buf[k])*real(buf[k]) + imag(buf[k])*imag(buf[k])
		}
		// Convert band power to an equivalent RMS amplitude (positive
		// and negative frequencies carry half the energy each).
		rms := math.Sqrt(2 * power / float64(n*n))
		ws.levels[w] = audio.SPLFromPressure(rms)
	}
	return ws.levels, cost, nil
}

// ambientSegment returns the noise-only head of a recording before the
// detected preamble, used for ambient noise measurement. A small guard is
// trimmed before the onset to avoid leakage from the rising signal edge.
func ambientSegment(rec *audio.Buffer, det *Detection) ([]float64, error) {
	end := max(det.PreambleStart-DefaultFFTSize/2, 0)
	if end > rec.Len() {
		return nil, fmt.Errorf("audio: slice [0, %d) out of range for length %d", end, rec.Len())
	}
	return rec.Samples[:end], nil
}

// bandLevels returns the per-window level profile of a recording: in-band
// SPL via windowed FFT band power when band edges are set, otherwise
// broadband RMS SPL. The windowed FFT costs ~4 ops per sample — cheap
// enough for the watch, unlike a time-domain band-pass over the whole
// recording.
func bandLevels(rec *audio.Buffer, window int, lowHz, highHz float64) ([]float64, Cost, error) {
	var cost Cost
	if lowHz <= 0 || highHz <= lowHz {
		cost.ScalarOps += int64(rec.Len())
		return audio.SPLWindowed(rec, window), cost, nil
	}
	if window <= 0 || rec.Len() < window {
		return nil, cost, nil
	}
	plan, err := dsp.PlanFor(dsp.NextPow2(window))
	if err != nil {
		return nil, cost, err
	}
	n := plan.Size()
	binHz := float64(rec.Rate) / float64(n)
	loBin := int(lowHz / binHz)
	hiBin := int(highHz / binHz)
	if loBin < 1 {
		loBin = 1
	}
	if hiBin > n/2-1 {
		hiBin = n/2 - 1
	}
	buf := dsp.GetComplex(n)
	defer dsp.PutComplex(buf)
	numWindows := rec.Len() / window
	out := make([]float64, 0, numWindows)
	for w := 0; w < numWindows; w++ {
		seg := rec.Samples[w*window:]
		for i := 0; i < n; i++ {
			if i < window {
				buf[i] = complex(seg[i], 0)
			} else {
				buf[i] = 0
			}
		}
		if err := plan.Forward(buf, buf); err != nil {
			return nil, cost, err
		}
		cost.FFTButterflies += fftCost(n)
		var power float64
		for k := loBin; k <= hiBin; k++ {
			power += real(buf[k])*real(buf[k]) + imag(buf[k])*imag(buf[k])
		}
		// Convert band power to an equivalent RMS amplitude (positive
		// and negative frequencies carry half the energy each).
		rms := math.Sqrt(2 * power / float64(n*n))
		out = append(out, audio.SPLFromPressure(rms))
	}
	return out, cost, nil
}
