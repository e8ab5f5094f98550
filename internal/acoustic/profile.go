package acoustic

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// SpeakerProfile models the transmit transducer. The paper (Sec. III,
// citing Dhwani) identifies two non-idealities: the rise effect (the
// speaker cannot reach full power instantly) and ringing (a reverberation
// tail longer than the input).
type SpeakerProfile struct {
	Name        string
	RiseTime    float64 // seconds to ~63% power on onsets
	RingTail    float64 // reverberation tail time constant, seconds
	RingLevel   float64 // tail amplitude relative to the direct impulse
	MaxOutputDB float64 // maximum SPL at the reference distance
}

// PhoneSpeaker returns a profile representative of a Nexus-class phone
// loudspeaker.
func PhoneSpeaker() SpeakerProfile {
	return SpeakerProfile{
		Name:        "phone-speaker",
		RiseTime:    0.0008,
		RingTail:    0.0012, // 3*tau ~ 160 samples, inside the 128-sample CP + guard
		RingLevel:   0.08,
		MaxOutputDB: 95,
	}
}

// apply renders the speaker non-idealities onto the waveform. buf.Samples
// must be pool scratch (dsp.GetFloat): ringing lengthens the waveform into
// a fresh pooled buffer and recycles the old one.
func (s SpeakerProfile) apply(buf *audio.Buffer) {
	if s.RiseTime > 0 {
		// The rise effect: the driver cannot reach full power instantly,
		// so the emitted envelope ramps up as 1-exp(-t/tau) from the
		// start of the transmission. (The carrier itself is unaffected —
		// only the power envelope rises.)
		tau := s.RiseTime * float64(buf.Rate)
		limit := int(5 * tau)
		for i := 0; i < limit && i < len(buf.Samples); i++ {
			buf.Samples[i] *= 1 - math.Exp(-float64(i)/tau)
		}
	}
	if s.RingTail > 0 && s.RingLevel > 0 {
		tau := s.RingTail * float64(buf.Rate)
		tail := int(3 * tau)
		if tail > 0 {
			ir := dsp.GetFloat(tail + 1)
			defer dsp.PutFloat(ir)
			ir[0] = 1
			for n := 1; n <= tail; n++ {
				ir[n] = s.RingLevel * math.Exp(-float64(n)/tau) / tau * 8
			}
			conv := dsp.GetFloat(len(buf.Samples) + tail)
			// Lengths match by construction; the only error is an empty
			// signal, whose ringing is the all-zero conv.
			_ = dsp.ConvolveInto(conv, buf.Samples, ir)
			dsp.PutFloat(buf.Samples)
			buf.Samples = conv
		}
	}
}

// MicProfile models the receive transducer, including the watch's
// mandatory built-in low-pass filter (the Moto 360 attenuates sharply from
// 5 kHz and passes nothing above 7 kHz, Sec. III-2) and the slow sample
// clock jitter between two independent ADC/DAC crystals that perturbs
// carrier phase — the effect that makes phase-shift keying need more SNR
// per bit than amplitude-shift keying on real hardware (Fig. 5).
type MicProfile struct {
	Name         string
	LowPassHz    float64 // 0 disables the band limit
	LowPassTaps  int     // FIR length for the band limit
	ClockJitter  float64 // RMS timing jitter in seconds (slow random walk)
	SelfNoiseSPL float64 // microphone noise floor
	ADCBits      int     // quantization depth; 0 disables

	// PhaseRippleRad is the RMS of a random all-pass phase ripple across
	// frequency, modeling the uneven phase response of the speaker-mic
	// chain (resonances, enclosure reflections). The ripple decorrelates
	// over PhaseRippleHz — narrower than the pilot spacing (4 bins ~
	// 690 Hz), so the interpolating equalizer cannot cancel it. Amplitude
	// response is untouched (|H| = 1), which is why amplitude keying
	// needs less SNR per bit than phase keying on this hardware (Fig. 5).
	PhaseRippleRad float64
	PhaseRippleHz  float64 // ripple correlation length; 0 defaults to 450 Hz
}

// WatchMic returns a profile representative of the Moto 360 microphone
// path: speech-oriented low-pass at ~6.5 kHz with a shallow FIR (gradual
// fade from 5 kHz), noticeable clock jitter, 16-bit ADC.
func WatchMic() MicProfile {
	return MicProfile{
		Name:           "watch-mic",
		LowPassHz:      6500,
		LowPassTaps:    31, // short filter => gradual roll-off from ~5 kHz
		ClockJitter:    3e-6,
		SelfNoiseSPL:   12,
		ADCBits:        16,
		PhaseRippleRad: 0.42,
	}
}

// PhoneMic returns a profile representative of a phone microphone: full
// audio band (supports the 15-20 kHz near-ultrasound experiments), lower
// jitter, 16-bit ADC.
func PhoneMic() MicProfile {
	return MicProfile{
		Name:           "phone-mic",
		LowPassHz:      0,
		ClockJitter:    2e-6,
		SelfNoiseSPL:   10,
		ADCBits:        16,
		PhaseRippleRad: 0.26,
	}
}

// Apply renders the microphone path onto a recording. Exported so the
// attack package can model relay hardware re-sampling a capture through
// its own imperfect ADC/DAC chain.
func (m MicProfile) Apply(buf *audio.Buffer, rng *rand.Rand) error {
	return m.apply(buf, rng)
}

// apply renders the microphone path onto the recording.
func (m MicProfile) apply(buf *audio.Buffer, rng *rand.Rand) error {
	if m.LowPassHz > 0 {
		if err := m.lowPass(buf); err != nil {
			return fmt.Errorf("acoustic: mic %s low-pass: %w", m.Name, err)
		}
	}
	if m.ClockJitter > 0 && rng != nil {
		applyClockJitter(buf, m.ClockJitter, rng)
	}
	if m.PhaseRippleRad > 0 && rng != nil {
		if err := applyPhaseRipple(buf, m.PhaseRippleRad, m.PhaseRippleHz, rng); err != nil {
			return fmt.Errorf("acoustic: mic %s phase ripple: %w", m.Name, err)
		}
	}
	if m.SelfNoiseSPL > 0 && rng != nil {
		floor := audio.PressureFromSPL(m.SelfNoiseSPL)
		for i := range buf.Samples {
			buf.Samples[i] += floor * rng.NormFloat64()
		}
	}
	if m.ADCBits > 0 {
		buf.Clip()
		if err := buf.Quantize(m.ADCBits); err != nil {
			return fmt.Errorf("acoustic: mic %s quantization: %w", m.Name, err)
		}
	}
	return nil
}

// lowPassKey is everything a mic's band-limit design depends on.
type lowPassKey struct {
	cutoffHz float64
	rate     int
	taps     int
}

// _lowPasses caches mic band-limit designs (*dsp.FIRFilter by lowPassKey);
// a filter is read-only once designed.
var _lowPasses sync.Map

// lowPass band-limits buf in place: the input is copied to pooled scratch
// and filtered back into buf.Samples.
func (m MicProfile) lowPass(buf *audio.Buffer) error {
	key := lowPassKey{m.LowPassHz, buf.Rate, m.LowPassTaps}
	if key.taps < 3 {
		key.taps = 31
	}
	f, ok := _lowPasses.Load(key)
	if !ok {
		lp, err := dsp.LowPassFIR(key.cutoffHz, float64(key.rate), key.taps)
		if err != nil {
			return err
		}
		f, _ = _lowPasses.LoadOrStore(key, lp)
	}
	src := dsp.GetFloat(buf.Len())
	defer dsp.PutFloat(src)
	copy(src, buf.Samples)
	return f.(*dsp.FIRFilter).ApplyInto(buf.Samples, src)
}

// applyPhaseRipple filters the recording through a random all-pass
// response: |H(f)| = 1 everywhere, arg H(f) a smooth random ripple with
// the given RMS (radians) and frequency correlation length. Implemented as
// one large FFT over the zero-padded recording with Hermitian-symmetric
// phase so the output stays real.
func applyPhaseRipple(buf *audio.Buffer, rmsRad, correlationHz float64, rng *rand.Rand) error {
	n := len(buf.Samples)
	if n < 2 {
		return nil
	}
	if correlationHz <= 0 {
		correlationHz = 450
	}
	size := dsp.NextPow2(n)
	rp, err := dsp.RealPlanFor(size)
	if err != nil {
		return err
	}
	// All transform scratch comes from the dsp pools: the simulator calls
	// this once per recording, and batch sweeps run many recordings.
	padded := dsp.GetFloat(size)
	defer dsp.PutFloat(padded)
	copy(padded, buf.Samples) // pool buffers arrive zeroed, so the tail is zero padding
	spec := dsp.GetComplex(size)
	defer dsp.PutComplex(spec)
	if err := rp.Forward(spec, padded); err != nil {
		return err
	}
	// Random phase at coarse grid points every correlationHz, linearly
	// interpolated to bin resolution.
	binHz := float64(buf.Rate) / float64(size)
	gridStep := int(correlationHz / binHz)
	if gridStep < 1 {
		gridStep = 1
	}
	half := size / 2
	numGrid := half/gridStep + 2
	grid := dsp.GetFloat(numGrid)
	defer dsp.PutFloat(grid)
	for i := range grid {
		grid[i] = rmsRad * rng.NormFloat64()
	}
	for k := 1; k < half; k++ {
		g := k / gridStep
		t := float64(k%gridStep) / float64(gridStep)
		phase := grid[g]*(1-t) + grid[g+1]*t
		rot := complex(math.Cos(phase), math.Sin(phase))
		spec[k] *= rot
		spec[size-k] *= complex(real(rot), -imag(rot)) // Hermitian partner
	}
	scratch := dsp.GetComplex(size)
	defer dsp.PutComplex(scratch)
	out := dsp.GetFloat(size)
	defer dsp.PutFloat(out)
	if err := rp.Inverse(out, spec, scratch); err != nil {
		return err
	}
	copy(buf.Samples, out[:n])
	return nil
}

// applyClockJitter resamples the recording through a slowly-varying
// fractional delay d(t) following a bounded random walk with RMS excursion
// sigma. A delay of d seconds rotates a carrier at frequency f by 2*pi*f*d
// radians, so jitter degrades phase-keyed constellations more than
// amplitude-keyed ones.
func applyClockJitter(buf *audio.Buffer, sigma float64, rng *rand.Rand) {
	n := len(buf.Samples)
	if n < 2 {
		return
	}
	src := dsp.GetFloat(n)
	defer dsp.PutFloat(src)
	copy(src, buf.Samples)
	rate := float64(buf.Rate)
	maxDelay := 4 * sigma
	// The walk decorrelates over ~2 ms — well inside one OFDM symbol
	// (5.8 ms at the defaults), so pilot equalization cannot cancel it:
	// the residual within-symbol phase wander is exactly the impairment
	// that penalizes phase keying on real audio hardware.
	const decorrelation = 0.002
	step := sigma / math.Sqrt(decorrelation*rate)
	pull := 1 - 1/(2*decorrelation*rate)
	var delay float64
	for i := range buf.Samples {
		delay += step * rng.NormFloat64()
		// Clamp plus a slow pull keeps the walk bounded around zero.
		if delay > maxDelay {
			delay = maxDelay
		} else if delay < -maxDelay {
			delay = -maxDelay
		}
		delay *= pull
		pos := float64(i) + delay*rate
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		var a, b float64
		if lo >= 0 && lo < n {
			a = src[lo]
		}
		if lo+1 >= 0 && lo+1 < n {
			b = src[lo+1]
		}
		buf.Samples[i] = a*(1-frac) + b*frac
	}
}
