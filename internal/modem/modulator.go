package modem

import (
	"fmt"
	"math"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// Modulator converts payload bits into an acoustic OFDM frame:
//
//	[ chirp preamble | guard | symbol 1 | ... | symbol n ]
//
// where each symbol is [ cyclic prefix | IFFT body | zero guard ]. Pilot
// sub-channels carry known unit-power tones; the base-band IFFT output's
// real part is emitted directly as the speaker waveform (Sec. III-1).
type Modulator struct {
	cfg      Config
	plan     *dsp.Plan
	preamble *audio.Buffer
}

// NewModulator validates the configuration and looks up the FFT plan and
// the preamble waveform, which every modulator and demodulator of that
// preamble shares read-only (see sharedPreamble).
func NewModulator(cfg Config) (*Modulator, error) {
	m := &Modulator{}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset re-initializes m for cfg exactly as NewModulator builds a fresh
// modulator. Everything it needs comes from process-wide caches, so a warm
// Reset allocates nothing.
func (m *Modulator) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	plan, err := dsp.PlanFor(cfg.FFTSize)
	if err != nil {
		return err
	}
	pre, err := sharedPreamble(cfg)
	if err != nil {
		return err
	}
	*m = Modulator{cfg: cfg, plan: plan, preamble: pre.wave}
	return nil
}

// Config returns the modulator's configuration.
func (m *Modulator) Config() Config { return m.cfg }

// Preamble synthesizes the frame preamble: an LFM chirp sweeping the
// configured band, edge-faded against the speaker rise effect.
func Preamble(cfg Config) (*audio.Buffer, error) {
	low, high := cfg.BandEdges()
	return audio.Chirp(audio.ChirpConfig{
		StartHz:    low,
		EndHz:      high,
		Samples:    cfg.PreambleLen,
		SampleRate: cfg.SampleRate,
		Amplitude:  1,
		FadeLen:    cfg.PreambleLen / 16,
	})
}

// PreambleWaveform returns a copy of the precomputed preamble.
func (m *Modulator) PreambleWaveform() *audio.Buffer {
	return m.preamble.Clone()
}

// Modulate builds the full frame waveform for the given payload bits
// (values 0/1). Bits that do not fill the last OFDM symbol are padded with
// zeros. It is a thin shim over ModulateInto with a pooled workspace.
func (m *Modulator) Modulate(bits []byte) (*audio.Buffer, error) {
	frame := &audio.Buffer{Samples: make([]float64, 0, m.cfg.FrameLen(len(bits)))}
	ws := getTxWorkspace()
	defer putTxWorkspace(ws)
	if err := m.ModulateInto(frame, bits, ws); err != nil {
		return nil, err
	}
	return frame, nil
}

// ModulateInto builds the frame waveform into frame, whose samples are
// reset (capacity retained) and whose rate is set to the modem's. With a
// warmed workspace and a frame buffer of sufficient capacity, steady-state
// calls allocate nothing. The output is bit-identical to Modulate.
func (m *Modulator) ModulateInto(frame *audio.Buffer, bits []byte, ws *TxWorkspace) error {
	if len(bits) == 0 {
		return fmt.Errorf("modem: empty payload")
	}
	numSymbols := m.cfg.NumSymbols(len(bits))
	ws.ensure(m.cfg, numSymbols)
	frame.Rate = m.cfg.SampleRate
	frame.Samples = frame.Samples[:0]
	frame.AppendSamples(m.preamble.Samples)
	frame.AppendSilence(m.cfg.PostPreambleGuard)

	bitsPerOFDM := m.cfg.BitsPerSymbol()
	padded := ws.padded[:numSymbols*bitsPerOFDM]
	n := copy(padded, bits)
	for i := n; i < len(padded); i++ {
		padded[i] = 0
	}
	for s := 0; s < numSymbols; s++ {
		symbolBits := padded[s*bitsPerOFDM : (s+1)*bitsPerOFDM]
		if err := m.modulateSymbolInto(frame, symbolBits, ws); err != nil {
			return fmt.Errorf("modem: symbol %d: %w", s, err)
		}
		frame.AppendSilence(m.cfg.SymbolGuard)
	}
	return nil
}

// ProbeSymbol builds the RTS channel-probing frame: the preamble followed
// by one block-type pilot symbol in which every pilot AND data sub-channel
// carries a known unit-power pilot. The receiver uses it for sub-channel
// noise ranking and pilot-SNR estimation (Sec. III "Channel probing"). It
// is a thin shim over ProbeSymbolInto with a pooled workspace.
func (m *Modulator) ProbeSymbol() (*audio.Buffer, error) {
	frame := &audio.Buffer{Samples: make([]float64, 0, m.cfg.FrameLen(1))}
	ws := getTxWorkspace()
	defer putTxWorkspace(ws)
	if err := m.ProbeSymbolInto(frame, ws); err != nil {
		return nil, err
	}
	return frame, nil
}

// ProbeSymbolInto builds the probe frame into frame, exactly as
// ModulateInto builds a data frame: samples reset (capacity retained),
// rate set to the modem's. The probe is one symbol long, so with a warmed
// workspace and a frame of cfg.FrameLen(1) capacity it allocates nothing.
func (m *Modulator) ProbeSymbolInto(frame *audio.Buffer, ws *TxWorkspace) error {
	ws.ensure(m.cfg, 1)
	frame.Rate = m.cfg.SampleRate
	frame.Samples = frame.Samples[:0]
	frame.AppendSamples(m.preamble.Samples)
	frame.AppendSilence(m.cfg.PostPreambleGuard)
	spec := ws.spec[:m.cfg.FFTSize]
	for i := range spec {
		spec[i] = 0
	}
	for _, k := range m.cfg.PilotChannels {
		spec[k] = pilotValue(k)
	}
	for _, k := range m.cfg.DataChannels {
		spec[k] = pilotValue(k)
	}
	if err := m.synthesizeInto(frame, spec, ws); err != nil {
		return err
	}
	frame.AppendSilence(m.cfg.SymbolGuard)
	return nil
}

// modulateSymbolInto maps one OFDM symbol's bits onto the data
// sub-channels, inserts pilots, and appends the time-domain waveform to
// frame.
func (m *Modulator) modulateSymbolInto(frame *audio.Buffer, bits []byte, ws *TxWorkspace) error {
	points := ws.points[:len(m.cfg.DataChannels)]
	if err := m.cfg.Modulation.MapInto(points, bits); err != nil {
		return err
	}
	spec := ws.spec[:m.cfg.FFTSize]
	for i := range spec {
		spec[i] = 0
	}
	for i, k := range m.cfg.DataChannels {
		spec[k] = points[i]
	}
	for _, k := range m.cfg.PilotChannels {
		spec[k] = pilotValue(k)
	}
	return m.synthesizeInto(frame, spec, ws)
}

// synthesizeInto converts a sub-channel spectrum into the on-wire symbol —
// IFFT, take the real part, normalize to unit peak, prepend the cyclic
// prefix — and appends it to frame. spec must be ws.spec or a disjoint
// slice of the plan's size.
func (m *Modulator) synthesizeInto(frame *audio.Buffer, spec []complex128, ws *TxWorkspace) error {
	timeDomain := ws.time[:m.cfg.FFTSize]
	if err := m.plan.Inverse(timeDomain, spec); err != nil {
		return err
	}
	body := ws.body[:m.cfg.FFTSize]
	var peak float64
	for i, v := range timeDomain {
		body[i] = real(v)
		if a := math.Abs(body[i]); a > peak {
			peak = a
		}
	}
	// Normalize the symbol so its peak is comparable across modulations;
	// the link applies the actual speaker drive level.
	if peak > 0 {
		for i := range body {
			body[i] /= peak
		}
	}
	frame.AppendSamples(body[len(body)-m.cfg.CPLen:]) // cyclic prefix
	frame.AppendSamples(body)
	return nil
}

// pilotValue returns the known unit-power pilot for sub-channel k. Phases
// alternate with the bin index to keep the time-domain peak-to-average
// power ratio low.
func pilotValue(k int) complex128 {
	if k%2 == 0 {
		return 1
	}
	return -1
}
