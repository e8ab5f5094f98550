package audio

import (
	"fmt"
	"math"

	"wearlock/internal/dsp"
)

// ChirpConfig describes a linearly frequency-modulated (LFM) sweep, the
// preamble waveform WearLock uses for signal detection and coarse
// synchronization (Sec. III-3). Chirps correlate well with themselves even
// under Doppler shift, which is why the paper prefers them over
// PN-sequences.
type ChirpConfig struct {
	StartHz    float64 // sweep start frequency
	EndHz      float64 // sweep end frequency
	Samples    int     // length of the sweep
	SampleRate int     // samples per second
	Amplitude  float64 // peak amplitude; 0 means 1.0
	FadeLen    int     // raised-cosine fade length at each edge
}

// Validate checks the configuration for physical plausibility.
func (c ChirpConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("audio: chirp sample rate %d must be positive", c.SampleRate)
	}
	if c.Samples <= 0 {
		return fmt.Errorf("audio: chirp length %d must be positive", c.Samples)
	}
	nyquist := float64(c.SampleRate) / 2
	if c.StartHz < 0 || c.StartHz > nyquist {
		return fmt.Errorf("audio: chirp start %.1f Hz outside [0, %.1f]", c.StartHz, nyquist)
	}
	if c.EndHz < 0 || c.EndHz > nyquist {
		return fmt.Errorf("audio: chirp end %.1f Hz outside [0, %.1f]", c.EndHz, nyquist)
	}
	if c.Amplitude < 0 {
		return fmt.Errorf("audio: chirp amplitude %.3f must be non-negative", c.Amplitude)
	}
	return nil
}

// Chirp synthesizes the LFM sweep described by the configuration. The
// instantaneous frequency moves linearly from StartHz to EndHz over the
// sweep; edges are faded to suppress spectral splatter and the speaker rise
// effect.
func Chirp(cfg ChirpConfig) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	amp := cfg.Amplitude
	if amp == 0 {
		amp = 1
	}
	buf, err := NewBuffer(cfg.SampleRate, cfg.Samples)
	if err != nil {
		return nil, err
	}
	duration := float64(cfg.Samples) / float64(cfg.SampleRate)
	rate := (cfg.EndHz - cfg.StartHz) / duration // Hz per second
	for i := range buf.Samples {
		t := float64(i) / float64(cfg.SampleRate)
		phase := 2 * math.Pi * (cfg.StartHz*t + rate*t*t/2)
		buf.Samples[i] = amp * math.Sin(phase)
	}
	dsp.FadeEdges(buf.Samples, cfg.FadeLen)
	return buf, nil
}

// Tone synthesizes a pure sine tone of the given frequency, amplitude, and
// length. It is used for SPL calibration and the tone-ACK rung.
func Tone(freqHz, amplitude float64, samples, sampleRate int) (*Buffer, error) {
	omega, err := ToneOmega(freqHz, sampleRate)
	if err != nil {
		return nil, err
	}
	buf, err := NewBuffer(sampleRate, samples)
	if err != nil {
		return nil, err
	}
	fillTone(buf.Samples, omega, amplitude)
	return buf, nil
}

// ToneInto overwrites buf's samples with the tone Tone would synthesize at
// buf's rate and length, allocating nothing.
func ToneInto(buf *Buffer, freqHz, amplitude float64) error {
	omega, err := ToneOmega(freqHz, buf.Rate)
	if err != nil {
		return err
	}
	fillTone(buf.Samples, omega, amplitude)
	return nil
}

// ToneOmega checks that a tone of freqHz is representable at sampleRate
// and returns its phase step in radians per sample.
func ToneOmega(freqHz float64, sampleRate int) (float64, error) {
	if sampleRate <= 0 {
		return 0, fmt.Errorf("audio: tone sample rate %d must be positive", sampleRate)
	}
	if freqHz < 0 || freqHz > float64(sampleRate)/2 {
		return 0, fmt.Errorf("audio: tone frequency %.1f outside [0, %.1f]", freqHz, float64(sampleRate)/2)
	}
	return 2 * math.Pi * freqHz / float64(sampleRate), nil
}

func fillTone(dst []float64, omega, amplitude float64) {
	for i := range dst {
		dst[i] = amplitude * math.Sin(omega*float64(i))
	}
}
