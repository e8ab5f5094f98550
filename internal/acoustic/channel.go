package acoustic

import (
	"fmt"
	"math"
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// NLOSConfig models body blocking of the direct acoustic path — the paper's
// "same hand" field-test configuration and the covered-speaker case study.
// Blocking attenuates the direct path; energy still arrives via two kinds
// of reflections: near diffraction paths around the obstruction (sub-CP
// delays, which make the channel frequency-selective) and room reflections
// (6-14 ms, which are weak but — once the direct path is attenuated —
// become visible in the preamble delay profile and inflate the RMS delay
// spread the NLOS detector measures, Sec. III "NLOS filtering").
type NLOSConfig struct {
	Enabled      bool
	DirectLossDB float64 // extra attenuation on the direct path
	// EchoLossDB is the loss of the strongest near (diffraction) echo
	// relative to the unblocked direct path. Default 8.
	EchoLossDB float64
	// FarEchoLossDB is the loss of the strongest room reflection relative
	// to the unblocked direct path. Default 18.
	FarEchoLossDB float64
}

// Interferer renders an additional receiver-side noise source the channel
// mixes on top of the ambient environment — transient bursts, a second
// jammer. The fault layer's burst generator satisfies it structurally.
// (*Jammer also satisfies it via Render.)
type Interferer interface {
	Render(n, sampleRate int, rng *rand.Rand) (*audio.Buffer, error)
}

// Link is a one-way acoustic path from a transmitter to a receiver. It
// composes, in order: speaker non-idealities, spherical-spreading loss and
// propagation delay, optional NLOS multipath, jammer and ambient noise
// injection at the receiver, and the receiving microphone's band limit,
// clock jitter, self-noise, and quantization.
type Link struct {
	SampleRate  int
	Distance    float64 // meters
	Propagation Propagation
	Speaker     SpeakerProfile
	Mic         MicProfile
	Env         *Environment // nil = silence
	Jammer      *Jammer      // nil = none
	NLOS        NLOSConfig
	// Extra holds additional receiver-side interference sources (chaos
	// bursts) mixed after Env and Jammer.
	Extra []Interferer
	// ExtraLossDB is flat additional path loss on the transmitted signal —
	// the fault layer's SNR-collapse knob. Ambient noise is unaffected, so
	// the received SNR genuinely collapses.
	ExtraLossDB float64

	// LeadIn and TailOut are the lengths, in samples, of ambient-only
	// recording captured before and after the transmitted frame. The
	// protocol uses the lead-in to measure ambient noise (Sec. III
	// "Ambient noise measurement").
	LeadIn  int
	TailOut int

	rng *rand.Rand
}

// NewLink constructs a link with the default propagation model and the
// supplied impairment profiles. rng drives every stochastic stage; pass a
// seeded source for reproducible experiments.
func NewLink(sampleRate int, distance float64, speaker SpeakerProfile, mic MicProfile, env *Environment, rng *rand.Rand) (*Link, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("acoustic: sample rate %d must be positive", sampleRate)
	}
	if distance <= 0 {
		return nil, fmt.Errorf("acoustic: distance %.3f m must be positive", distance)
	}
	if rng == nil {
		return nil, fmt.Errorf("acoustic: link requires a random source")
	}
	return &Link{
		SampleRate:  sampleRate,
		Distance:    distance,
		Propagation: DefaultPropagation(),
		Speaker:     speaker,
		Mic:         mic,
		Env:         env,
		LeadIn:      sampleRate / 8, // 125 ms of ambient before the frame
		TailOut:     sampleRate / 25,
		rng:         rng,
	}, nil
}

// Transmit plays tx through the link at the given speaker volume (SPL at
// the propagation reference distance) and returns the receiver-side
// recording: LeadIn samples of ambient, then the distorted frame, then
// TailOut samples of ambient. The recording is freshly allocated and
// belongs to the caller; Transmit does not keep tx.
func (l *Link) Transmit(tx *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	return l.transmit(tx, volumeSPL, audio.NewBuffer)
}

// TransmitPooled is Transmit with the recording's samples drawn from
// dsp.GetFloat. The caller hands them back with dsp.PutFloat after the
// recording's last reader, so it must not pass the recording to code
// that keeps it.
func (l *Link) TransmitPooled(tx *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	return l.transmit(tx, volumeSPL, pooledBuffer)
}

// pooledBuffer is audio.NewBuffer with the samples drawn from
// dsp.GetFloat.
func pooledBuffer(rate, n int) (*audio.Buffer, error) {
	if rate <= 0 || n < 0 {
		return audio.NewBuffer(rate, n) // reports the error
	}
	return &audio.Buffer{Rate: rate, Samples: dsp.GetFloat(n)}, nil
}

// transmit is the body of Transmit and TransmitPooled; newRecording
// allocates the zeroed recording.
func (l *Link) transmit(tx *audio.Buffer, volumeSPL float64, newRecording func(rate, n int) (*audio.Buffer, error)) (*audio.Buffer, error) {
	if tx.Rate != l.SampleRate {
		return nil, fmt.Errorf("acoustic: frame rate %d does not match link rate %d", tx.Rate, l.SampleRate)
	}
	if l.Speaker.MaxOutputDB > 0 && volumeSPL > l.Speaker.MaxOutputDB {
		volumeSPL = l.Speaker.MaxOutputDB
	}

	// Speaker drive: scale so the active portion of the waveform sits at
	// volumeSPL at the reference distance, then apply rise/ringing. The
	// driven signal is pooled scratch; only the recording leaves Transmit.
	signal := &audio.Buffer{Rate: tx.Rate, Samples: dsp.GetFloat(tx.Len())}
	defer func() { dsp.PutFloat(signal.Samples) }()
	copy(signal.Samples, tx.Samples)
	active := activeRMS(signal.Samples)
	if active > 0 {
		signal.Gain(audio.PressureFromSPL(volumeSPL) / active)
	}
	l.Speaker.apply(signal)

	// Path loss and delay.
	loss, err := l.Propagation.AttenuationDB(l.Distance)
	if err != nil {
		return nil, err
	}
	signal.Gain(dsp.FromDBAmplitude(-loss))
	if l.ExtraLossDB > 0 {
		signal.Gain(dsp.FromDBAmplitude(-l.ExtraLossDB))
	}
	delay := DelaySamples(l.Distance, l.SampleRate)

	if l.NLOS.Enabled {
		if err := l.applyNLOS(signal); err != nil {
			return nil, err
		}
	}

	// Assemble the receiver-side recording.
	total := l.LeadIn + delay + signal.Len() + l.TailOut
	rec, err := newRecording(l.SampleRate, total)
	if err != nil {
		return nil, err
	}
	if err := rec.MixAt(l.LeadIn+delay, signal); err != nil {
		return nil, err
	}
	if l.Env != nil {
		if err := l.mixAmbient(rec); err != nil {
			return nil, err
		}
	}
	if l.Jammer != nil {
		if err := l.Jammer.MixInto(rec, l.rng); err != nil {
			return nil, err
		}
	}
	for _, itf := range l.Extra {
		if itf == nil {
			continue
		}
		extra, err := itf.Render(total, l.SampleRate, l.rng)
		if err != nil {
			return nil, err
		}
		if err := rec.MixAt(0, extra); err != nil {
			return nil, err
		}
	}
	if err := l.Mic.apply(rec, l.rng); err != nil {
		return nil, err
	}
	return rec, nil
}

// mixAmbient renders the environment's noise under the whole recording,
// through pooled scratch: only the recording itself leaves Transmit.
func (l *Link) mixAmbient(rec *audio.Buffer) error {
	ambient := audio.Buffer{Rate: rec.Rate, Samples: dsp.GetFloat(rec.Len())}
	defer dsp.PutFloat(ambient.Samples)
	if err := l.Env.RenderInto(&ambient, l.rng); err != nil {
		return err
	}
	return rec.MixAt(0, &ambient)
}

// applyNLOS attenuates the direct path and adds near (diffraction) and far
// (room) reflection taps.
func (l *Link) applyNLOS(signal *audio.Buffer) error {
	cfg := l.NLOS
	if cfg.EchoLossDB == 0 {
		cfg.EchoLossDB = 8
	}
	if cfg.FarEchoLossDB == 0 {
		cfg.FarEchoLossDB = 18
	}
	// The unblocked copy and each echo are pooled scratch.
	direct := dsp.GetFloat(signal.Len())
	defer dsp.PutFloat(direct)
	copy(direct, signal.Samples)
	echo := &audio.Buffer{Rate: signal.Rate, Samples: dsp.GetFloat(len(direct))}
	defer dsp.PutFloat(echo.Samples)
	signal.Gain(dsp.FromDBAmplitude(-cfg.DirectLossDB))

	msToSamples := func(ms float64) int {
		return int(ms / 1000 * float64(l.SampleRate))
	}
	type tap struct {
		minDelayMS, maxDelayMS float64
		lossDB                 float64
	}
	taps := []tap{
		// Near diffraction paths: path differences of 7-45 cm, within the
		// delay spread the pilot spacing can still equalize (~1/690 Hz).
		{0.2, 0.7, cfg.EchoLossDB},
		{0.6, 1.3, cfg.EchoLossDB + 3},
		// Room reflections: walls and ceiling, several meters extra path.
		{5.5, 9.0, cfg.FarEchoLossDB},
		{9.5, 14.0, cfg.FarEchoLossDB + 4},
	}
	for _, tp := range taps {
		delay := msToSamples(tp.minDelayMS) + l.rng.Intn(msToSamples(tp.maxDelayMS-tp.minDelayMS)+1)
		copy(echo.Samples, direct)
		gain := dsp.FromDBAmplitude(-tp.lossDB)
		if l.rng.Intn(2) == 0 {
			gain = -gain // reflection phase flip
		}
		echo.Gain(gain)
		if err := signal.MixAt(delay, echo); err != nil {
			return err
		}
	}
	return nil
}

// activeRMS computes RMS over samples that are not exact digital silence,
// so zero-padded guard intervals do not dilute the drive level.
func activeRMS(x []float64) float64 {
	var sum float64
	var n int
	for _, v := range x {
		if v != 0 {
			sum += v * v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// ReceiverSPL predicts the SPL of the frame at the receiver before noise,
// for link-budget reporting.
func (l *Link) ReceiverSPL(volumeSPL float64) (float64, error) {
	return l.Propagation.SPLAt(volumeSPL, l.Distance)
}
