package modem

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// Demodulator runs the full receive pipeline of Fig. 3: energy-based
// silence detection, preamble detection (coarse synchronization), per-
// symbol cyclic-prefix fine synchronization, FFT, pilot channel estimation
// and equalization, and constellation de-mapping.
//
// A Demodulator holds the preamble correlator shared by every demodulator
// of the same preamble (see sharedPreamble) plus its sorted pilot and null
// channel sets. It is NOT safe for concurrent use; give each session or
// goroutine its own.
type Demodulator struct {
	cfg      Config
	plan     *dsp.Plan
	rplan    *dsp.RealPlan
	preamble *audio.Buffer
	detector DetectorConfig
	eqMethod EqualizerMethod

	// corr holds the preamble template with its FFT cached per transform
	// size, so the per-frame preamble search transforms only the signal.
	// It is shared process-wide; the signal scratch lives in RxWorkspace.
	corr *dsp.Correlator
	// pilots and nulls are the sorted pilot and null channel sets,
	// computed once instead of per symbol.
	pilots []int
	nulls  []int

	// FineSyncEnabled gates Eq. 2 fine synchronization (on by default;
	// the ablation benchmark switches it off).
	FineSyncEnabled bool
	// FineSyncRange is the +/- sample search window for fine sync.
	FineSyncRange int
}

// NewDemodulator validates the configuration and precomputes the FFT plan
// and reference preamble.
func NewDemodulator(cfg Config) (*Demodulator, error) {
	d := &Demodulator{}
	if err := d.Reset(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-initializes d for cfg exactly as NewDemodulator builds a fresh
// demodulator, overrides included, but keeps the capacity of d's channel
// sets. The plans and the preamble come from process-wide caches, so
// resetting a warm demodulator to a configuration with sorted pilots
// allocates nothing.
func (d *Demodulator) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	plan, err := dsp.PlanFor(cfg.FFTSize)
	if err != nil {
		return err
	}
	rplan, err := dsp.RealPlanFor(cfg.FFTSize)
	if err != nil {
		return err
	}
	pre, err := sharedPreamble(cfg)
	if err != nil {
		return err
	}
	// The energy gate measures level inside the occupied band only:
	// broadband ambient noise outside the band (speech, HVAC) would
	// otherwise swamp it — fatal for the near-ultrasound band, whose
	// signals sit far above the ambient spectrum.
	detector := DefaultDetectorConfig()
	detector.BandLowHz, detector.BandHighHz = cfg.BandEdges()
	*d = Demodulator{
		cfg:             cfg,
		plan:            plan,
		rplan:           rplan,
		preamble:        pre.wave,
		detector:        detector,
		eqMethod:        EqualizeFFTInterp,
		corr:            pre.corr,
		pilots:          cfg.sortedPilots(),
		nulls:           cfg.appendNullChannels(d.nulls[:0]),
		FineSyncEnabled: true,
		FineSyncRange:   DefaultFineSyncRange,
	}
	return nil
}

// preambleKey is everything Preamble(cfg) depends on.
type preambleKey struct {
	lowHz, highHz float64
	length, rate  int
}

// preambleEntry is one preamble waveform and its correlator. Both are
// read-only once built, so every demodulator of that preamble shares them.
type preambleEntry struct {
	wave *audio.Buffer
	corr *dsp.Correlator
}

// _preambles caches preambleEntry by preambleKey for the life of the
// process. A session builds a fresh Demodulator per phase, and each would
// otherwise re-synthesize the chirp and re-transform it at every FFT size
// its searches touch. The handful of band/length/rate combinations in use
// bounds the map.
var _preambles sync.Map // preambleKey -> *preambleEntry

func sharedPreamble(cfg Config) (*preambleEntry, error) {
	low, high := cfg.BandEdges()
	key := preambleKey{low, high, cfg.PreambleLen, cfg.SampleRate}
	if e, ok := _preambles.Load(key); ok {
		return e.(*preambleEntry), nil
	}
	wave, err := Preamble(cfg)
	if err != nil {
		return nil, err
	}
	corr, err := dsp.NewCorrelator(wave.Samples)
	if err != nil {
		return nil, err
	}
	e, _ := _preambles.LoadOrStore(key, &preambleEntry{wave, corr})
	return e.(*preambleEntry), nil
}

// Config returns the demodulator's configuration.
func (d *Demodulator) Config() Config { return d.cfg }

// SetEqualizerMethod overrides the pilot interpolation method (ablations).
func (d *Demodulator) SetEqualizerMethod(m EqualizerMethod) { d.eqMethod = m }

// RxResult reports everything the receive pipeline learned from one frame.
type RxResult struct {
	Bits      []byte       // decoded payload bits (numBits of them)
	Detection *Detection   // where and how confidently the frame was found
	Points    []complex128 // equalized constellation points, symbol-major

	PSNR   float64 // pilot-based SNR (linear), averaged over symbols
	PSNRdB float64
	EbN0dB float64 // normalized per-bit SNR for adaptive modulation

	FineSyncOffsets []int     // per-symbol fine sync adjustment
	SymbolPSNR      []float64 // per-symbol pilot SNR (linear)

	// Cost is the total DSP work; DetectCost covers the silence gate and
	// preamble search (the "pre-processing" of Fig. 10), DecodeCost the
	// per-symbol fine sync, FFTs, equalization, and de-mapping.
	Cost       Cost
	DetectCost Cost
	DecodeCost Cost
}

// Clone returns a deep copy whose slices do not alias the receiver's.
// Results produced by DemodulateInto alias the workspace; Clone detaches
// them.
func (r *RxResult) Clone() *RxResult {
	out := *r
	if r.Detection != nil {
		det := *r.Detection
		out.Detection = &det
	}
	if r.Bits != nil {
		out.Bits = append([]byte(nil), r.Bits...)
	}
	if r.Points != nil {
		out.Points = append([]complex128(nil), r.Points...)
	}
	if r.FineSyncOffsets != nil {
		out.FineSyncOffsets = append([]int(nil), r.FineSyncOffsets...)
	}
	if r.SymbolPSNR != nil {
		out.SymbolPSNR = append([]float64(nil), r.SymbolPSNR...)
	}
	return &out
}

// Demodulate decodes numBits payload bits from a recording. It returns an
// *ErrNoSignal error when no frame is present. It is a thin shim over
// DemodulateInto with a pooled workspace; the returned result owns its
// slices.
func (d *Demodulator) Demodulate(rec *audio.Buffer, numBits int) (*RxResult, error) {
	ws := getRxWorkspace()
	defer putRxWorkspace(ws)
	res, err := d.DemodulateInto(rec, numBits, ws)
	if res == nil {
		return nil, err
	}
	return res.Clone(), err
}

// DemodulateInto is the allocation-free receive path: every buffer,
// including the returned result's slices, is owned by ws. The result is
// valid only until the workspace's next use; callers who need it longer
// must Clone it. With a warmed workspace, steady-state frames allocate
// zero bytes. Decoded bits and all reported metrics are bit-identical to
// Demodulate.
func (d *Demodulator) DemodulateInto(rec *audio.Buffer, numBits int, ws *RxWorkspace) (*RxResult, error) {
	if numBits <= 0 {
		return nil, fmt.Errorf("modem: numBits %d must be positive", numBits)
	}
	if rec.Rate != d.cfg.SampleRate {
		return nil, fmt.Errorf("modem: recording rate %d does not match modem rate %d", rec.Rate, d.cfg.SampleRate)
	}
	ws.reset()
	ws.ensure(d.cfg)
	res := &ws.res
	det, cost, err := d.detectPreambleInto(rec, ws)
	res.Cost.Add(cost)
	res.DetectCost.Add(cost)
	if err != nil {
		return res, err
	}
	res.Detection = det

	numSymbols := d.cfg.NumSymbols(numBits)
	base := det.PreambleStart + d.cfg.PreambleLen + d.cfg.PostPreambleGuard
	// One spectrum scratch serves every symbol of the frame; each
	// symbolSpectrum call overwrites it completely.
	scratch := ws.spectrum[:d.cfg.FFTSize]
	var psnrSum float64
	var psnrCount int
	drift := 0
	bitsPerOFDM := d.cfg.BitsPerSymbol()
	for s := 0; s < numSymbols; s++ {
		cpStart := base + s*d.cfg.SymbolLen() + drift
		if d.FineSyncEnabled {
			offset, _, syncCost := FineSync(rec.Samples, cpStart, d.cfg, d.FineSyncRange)
			res.Cost.Add(syncCost)
			res.DecodeCost.Add(syncCost)
			cpStart += offset
			// Clock drift accumulates across symbols, but a spurious
			// offset must not derail the rest of the frame: cap the
			// cumulative correction at one cyclic prefix.
			drift += offset
			if drift > d.cfg.CPLen {
				drift = d.cfg.CPLen
			} else if drift < -d.cfg.CPLen {
				drift = -d.cfg.CPLen
			}
			ws.offsets = append(ws.offsets, offset)
			res.FineSyncOffsets = ws.offsets
		}
		spectrum, err := d.symbolSpectrum(scratch, rec.Samples, cpStart, res)
		if err != nil {
			return res, fmt.Errorf("modem: symbol %d: %w", s, err)
		}
		if psnr, err := pilotSNRWith(spectrum, d.cfg.PilotChannels, d.nulls); err == nil {
			ws.symPSNR = append(ws.symPSNR, psnr)
			res.SymbolPSNR = ws.symPSNR
			psnrSum += psnr
			psnrCount++
		}
		est, eqCost, err := d.estimateChannelInto(ws, spectrum)
		res.Cost.Add(eqCost)
		res.DecodeCost.Add(eqCost)
		if err != nil {
			return res, fmt.Errorf("modem: symbol %d: %w", s, err)
		}
		pointBase := len(ws.points)
		if need := pointBase + len(d.cfg.DataChannels); cap(ws.points) >= need {
			ws.points = ws.points[:need]
		} else {
			ws.points = append(ws.points, make([]complex128, len(d.cfg.DataChannels))...)
		}
		points := ws.points[pointBase:]
		eqCost2, err := equalizeInto(points, spectrum, est, d.cfg.DataChannels)
		res.Cost.Add(eqCost2)
		res.DecodeCost.Add(eqCost2)
		if err != nil {
			return res, fmt.Errorf("modem: symbol %d: %w", s, err)
		}
		res.Points = ws.points
		symBits := ws.symBits[:bitsPerOFDM]
		if err := d.cfg.Modulation.DemapInto(symBits, points); err != nil {
			return res, fmt.Errorf("modem: symbol %d: %w", s, err)
		}
		demapOps := int64(len(points) * (1 << d.cfg.Modulation.BitsPerSymbol()))
		res.Cost.ScalarOps += demapOps
		res.DecodeCost.ScalarOps += demapOps
		ws.bits = append(ws.bits, symBits...)
	}
	if len(ws.bits) < numBits {
		return res, fmt.Errorf("modem: decoded %d bits, need %d", len(ws.bits), numBits)
	}
	res.Bits = ws.bits[:numBits]
	if psnrCount > 0 {
		res.PSNR = psnrSum / float64(psnrCount)
		res.PSNRdB = dsp.DB(res.PSNR)
		res.EbN0dB = EbN0FromPSNR(res.PSNR, d.cfg)
	}
	return res, nil
}

// symbolSpectrum extracts one OFDM symbol body starting after the cyclic
// prefix and transforms it to the frequency domain via the real-input
// fast path. buf is caller-owned scratch of the plan's size; it is
// completely overwritten and returned.
func (d *Demodulator) symbolSpectrum(buf []complex128, samples []float64, cpStart int, res *RxResult) ([]complex128, error) {
	bodyStart := cpStart + d.cfg.CPLen
	bodyEnd := bodyStart + d.cfg.FFTSize
	if bodyStart < 0 || bodyEnd > len(samples) {
		return nil, fmt.Errorf("symbol body [%d, %d) outside recording of %d samples", bodyStart, bodyEnd, len(samples))
	}
	if len(buf) != d.cfg.FFTSize {
		return nil, fmt.Errorf("spectrum scratch of %d samples, want %d", len(buf), d.cfg.FFTSize)
	}
	if err := d.rplan.Forward(buf, samples[bodyStart:bodyEnd]); err != nil {
		return nil, err
	}
	res.Cost.FFTButterflies += fftCost(d.cfg.FFTSize)
	res.DecodeCost.FFTButterflies += fftCost(d.cfg.FFTSize)
	return buf, nil
}

// ProbeAnalysis is the receiver-side result of the RTS/CTS channel-probing
// phase (Sec. III "Channel probing and sub-channel selection"): per-bin
// ambient noise power, per-bin channel gain observed on the block pilot
// symbol, the pilot SNR, and the delay-spread NLOS verdict inputs.
type ProbeAnalysis struct {
	Detection *Detection
	// NoisePower maps every in-band bin to the ambient noise power
	// measured on the pre-signal recording head. Long-lived interferers
	// (AC hum, jammer tones) show up here.
	NoisePower map[int]float64
	// ChannelGain maps every probed bin to |H(k)| observed on the block
	// pilot symbol; dead bins (e.g. above the watch low-pass) are near 0.
	ChannelGain map[int]float64
	PSNR        float64 // linear pilot SNR of the probe symbol
	PSNRdB      float64
	EbN0dB      float64
	// DelayProfile and RMSDelaySpread support NLOS detection (see nlos.go).
	DelayProfile   []float64
	RMSDelaySpread float64 // seconds
	Cost           Cost
}

// Clone returns a deep copy whose maps and slices do not alias the
// receiver's. Analyses produced by AnalyzeProbeInto alias the workspace;
// Clone detaches them.
func (pa *ProbeAnalysis) Clone() *ProbeAnalysis {
	out := *pa
	if pa.Detection != nil {
		det := *pa.Detection
		out.Detection = &det
	}
	if pa.NoisePower != nil {
		out.NoisePower = maps.Clone(pa.NoisePower)
	}
	if pa.ChannelGain != nil {
		out.ChannelGain = maps.Clone(pa.ChannelGain)
	}
	if pa.DelayProfile != nil {
		out.DelayProfile = slices.Clone(pa.DelayProfile)
	}
	return &out
}

// AnalyzeProbe processes a recorded probe frame (built by
// Modulator.ProbeSymbol). It is a thin shim over AnalyzeProbeInto with a
// pooled workspace; the returned analysis owns its maps and slices.
func (d *Demodulator) AnalyzeProbe(rec *audio.Buffer) (*ProbeAnalysis, error) {
	ws := getRxWorkspace()
	defer putRxWorkspace(ws)
	pa, err := d.AnalyzeProbeInto(rec, ws)
	if pa == nil {
		return nil, err
	}
	return pa.Clone(), err
}

// AnalyzeProbeInto is the allocation-free probe analysis: the returned
// analysis, its detection, maps and delay profile are owned by ws and stay
// valid until ws's next AnalyzeProbeInto (DemodulateInto on the same
// workspace leaves them alone). With a warmed workspace, steady-state
// calls allocate nothing. Results are bit-identical to AnalyzeProbe.
func (d *Demodulator) AnalyzeProbeInto(rec *audio.Buffer, ws *RxWorkspace) (*ProbeAnalysis, error) {
	if rec.Rate != d.cfg.SampleRate {
		return nil, fmt.Errorf("modem: recording rate %d does not match modem rate %d", rec.Rate, d.cfg.SampleRate)
	}
	ws.reset()
	ws.ensure(d.cfg)
	ws.probe = ProbeAnalysis{}
	pa := &ws.probe
	det, cost, err := d.detectPreambleInto(rec, ws)
	pa.Cost.Add(cost)
	if err != nil {
		return pa, err
	}
	// The analysis keeps its own copy of the detection, which the next
	// DemodulateInto on this workspace would overwrite.
	ws.probeDet = *det
	det = &ws.probeDet
	pa.Detection = det

	// Ambient noise spectrum from the recording head.
	ambient, err := ambientSegment(rec, det)
	if err != nil {
		return pa, err
	}
	noiseCost, err := d.averageBinPower(ws, ambient)
	pa.Cost.Add(noiseCost)
	if err != nil {
		return pa, fmt.Errorf("modem: ambient noise analysis: %w", err)
	}
	pa.NoisePower = ws.noise

	// Probe symbol spectrum: fine-sync, FFT, per-bin gain, pilot SNR.
	cpStart := det.PreambleStart + d.cfg.PreambleLen + d.cfg.PostPreambleGuard
	if d.FineSyncEnabled {
		offset, _, syncCost := FineSync(rec.Samples, cpStart, d.cfg, d.FineSyncRange)
		pa.Cost.Add(syncCost)
		cpStart += offset
	}
	var symCost RxResult
	spectrum, err := d.symbolSpectrum(ws.spectrum[:d.cfg.FFTSize], rec.Samples, cpStart, &symCost)
	pa.Cost.Add(symCost.Cost)
	if err != nil {
		return pa, fmt.Errorf("modem: probe symbol: %w", err)
	}
	ws.gain = clearedMap(ws.gain, len(d.cfg.DataChannels)+len(d.cfg.PilotChannels))
	for _, chans := range [...][]int{d.cfg.DataChannels, d.cfg.PilotChannels} {
		for _, k := range chans {
			ws.gain[k] = cmplx.Abs(spectrum[k])
		}
	}
	pa.ChannelGain = ws.gain
	if psnr, err := pilotSNRWith(spectrum, d.cfg.PilotChannels, d.nulls); err == nil {
		pa.PSNR = psnr
		pa.PSNRdB = dsp.DB(psnr)
		pa.EbN0dB = EbN0FromPSNR(psnr, d.cfg)
	}

	// Delay profile of the preamble for NLOS detection.
	profile, profCost, err := d.preambleDelayProfile(rec, det, ws)
	pa.Cost.Add(profCost)
	if err != nil {
		return pa, fmt.Errorf("modem: delay profile: %w", err)
	}
	pa.DelayProfile = profile
	pa.RMSDelaySpread = RMSDelaySpread(profile, d.cfg.SampleRate)
	return pa, nil
}

// clearedMap empties m for reuse, or makes it when nil.
func clearedMap(m map[int]float64, size int) map[int]float64 {
	if m == nil {
		return make(map[int]float64, size)
	}
	clear(m)
	return m
}

// averageBinPower estimates per-bin noise power by averaging FFT window
// powers over a noise-only segment into ws.noise. Bins outside the pilot
// span are skipped; at least one full window is required. Each bin's
// window powers are summed in window order in ws.binPower, indexed by bin.
func (d *Demodulator) averageBinPower(ws *RxWorkspace, samples []float64) (Cost, error) {
	var cost Cost
	n := d.cfg.FFTSize
	if len(samples) < n {
		return cost, fmt.Errorf("noise segment of %d samples shorter than one FFT window (%d)", len(samples), n)
	}
	pilots := d.pilots
	lo, hi := pilots[0], pilots[len(pilots)-1]
	ws.binPower = growFloat(ws.binPower, hi-lo+1)
	acc := ws.binPower
	clear(acc)
	windows := 0
	buf := ws.fftBuf[:n]
	for start := 0; start+n <= len(samples); start += n {
		if err := d.rplan.Forward(buf, samples[start:start+n]); err != nil {
			return cost, err
		}
		cost.FFTButterflies += fftCost(n)
		for k := lo; k <= hi; k++ {
			v := buf[k]
			acc[k-lo] += real(v)*real(v) + imag(v)*imag(v)
		}
		windows++
	}
	ws.noise = clearedMap(ws.noise, len(acc))
	for i, p := range acc {
		ws.noise[lo+i] = p / float64(windows)
	}
	return cost, nil
}

// EVM returns the RMS error-vector magnitude of equalized points against
// the ideal constellation of the configured modulation, a quality metric
// used in diagnostics and tests.
func EVM(points []complex128, mod Modulation) (float64, error) {
	if len(points) == 0 {
		return 0, fmt.Errorf("modem: EVM of empty point set")
	}
	bits, err := mod.Demap(points)
	if err != nil {
		return 0, err
	}
	ideal, err := mod.Map(bits)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := range points {
		d := points[i] - ideal[i]
		sum += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(sum / float64(len(points))), nil
}
