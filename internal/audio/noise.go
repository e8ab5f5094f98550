package audio

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"wearlock/internal/dsp"
)

// NoiseKind identifies a synthetic noise color/texture.
type NoiseKind int

// Supported noise textures.
const (
	NoiseWhite     NoiseKind = iota + 1
	NoisePink                // 1/f spectrum, approximates broadband room noise
	NoiseBabble              // voice-band shaped, approximates crowd chatter
	NoiseImpulsive           // sparse clicks, approximates keyboard typing
	NoiseHum                 // low-frequency machinery hum with harmonics
)

// String implements fmt.Stringer.
func (k NoiseKind) String() string {
	switch k {
	case NoiseWhite:
		return "white"
	case NoisePink:
		return "pink"
	case NoiseBabble:
		return "babble"
	case NoiseImpulsive:
		return "impulsive"
	case NoiseHum:
		return "hum"
	default:
		return fmt.Sprintf("NoiseKind(%d)", int(k))
	}
}

// Noise synthesizes n samples of the requested noise texture at unit RMS
// using the supplied random source. Callers scale the result to the
// desired SPL with ScaleToSPL.
func Noise(kind NoiseKind, n, sampleRate int, rng *rand.Rand) (*Buffer, error) {
	buf, err := NewBuffer(sampleRate, n)
	if err != nil {
		return nil, err
	}
	if err := NoiseInto(buf, kind, rng); err != nil {
		return nil, err
	}
	return buf, nil
}

// NoiseInto is Noise writing into buf: it overwrites every sample of
// buf.Samples with noise at buf.Rate, drawing from rng in exactly the
// order Noise does, so the samples are bit-identical. Intermediate
// buffers are pooled and the band-pass design is cached, so steady-state
// calls allocate nothing.
func NoiseInto(buf *Buffer, kind NoiseKind, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("audio: noise requires a random source")
	}
	if len(buf.Samples) == 0 {
		return nil
	}
	switch kind {
	case NoiseWhite:
		for i := range buf.Samples {
			buf.Samples[i] = rng.NormFloat64()
		}
	case NoisePink:
		pinkNoise(buf.Samples, rng)
	case NoiseBabble:
		if err := babbleNoise(buf, rng); err != nil {
			return err
		}
	case NoiseImpulsive:
		impulsiveNoise(buf, rng)
	case NoiseHum:
		humNoise(buf, rng)
	default:
		return fmt.Errorf("audio: unknown noise kind %d", int(kind))
	}
	dsp.NormalizeRMS(buf.Samples, 1)
	return nil
}

// pinkNoise fills x with 1/f noise using the Voss-McCartney algorithm.
func pinkNoise(x []float64, rng *rand.Rand) {
	const rows = 16
	var values [rows]float64
	var running float64
	for i := range values {
		values[i] = rng.NormFloat64()
		running += values[i]
	}
	for i := range x {
		// Choose the row whose bit flips at this index (trailing zeros).
		row := 0
		for n := i + 1; n&1 == 0 && row < rows-1; n >>= 1 {
			row++
		}
		running -= values[row]
		values[row] = rng.NormFloat64()
		running += values[row]
		x[i] = running / rows
	}
}

// babbleNoise approximates overlapping human speech: white noise band-passed
// to the 300 Hz - 3.4 kHz voice band with a stochastic syllabic amplitude
// envelope (random control points every ~125 ms, linearly interpolated), so
// two independent renders have uncorrelated envelopes — the property the
// ambient-similarity filter distinguishes co-located recordings by.
func babbleNoise(buf *Buffer, rng *rand.Rand) error {
	for i := range buf.Samples {
		buf.Samples[i] = rng.NormFloat64()
	}
	bp, err := voiceBand(buf.Rate)
	if err != nil {
		return err
	}
	filtered := dsp.GetFloat(len(buf.Samples))
	defer dsp.PutFloat(filtered)
	if err := bp.ApplyInto(filtered, buf.Samples); err != nil {
		return err
	}
	step := buf.Rate / 8
	if step < 1 {
		step = 1
	}
	points := dsp.GetFloat(len(filtered)/step + 2)
	defer dsp.PutFloat(points)
	for i := range points {
		points[i] = 0.55 + 0.4*rng.Float64()
	}
	for i := range filtered {
		seg := i / step
		t := float64(i%step) / float64(step)
		envelope := points[seg]*(1-t) + points[seg+1]*t
		buf.Samples[i] = filtered[i] * envelope
	}
	return nil
}

// _voiceBands caches babbleNoise's band-pass design per sample rate
// (*dsp.FIRFilter by int rate); a filter is read-only once designed.
var _voiceBands sync.Map

func voiceBand(rate int) (*dsp.FIRFilter, error) {
	if f, ok := _voiceBands.Load(rate); ok {
		return f.(*dsp.FIRFilter), nil
	}
	f, err := dsp.BandPassFIR(300, 3400, float64(rate), 129)
	if err != nil {
		return nil, err
	}
	v, _ := _voiceBands.LoadOrStore(rate, f)
	return v.(*dsp.FIRFilter), nil
}

// impulsiveNoise produces sparse exponentially-decaying clicks, about eight
// per second, over a low noise floor.
func impulsiveNoise(buf *Buffer, rng *rand.Rand) {
	for i := range buf.Samples {
		buf.Samples[i] = 0.05 * rng.NormFloat64()
	}
	clickEvery := buf.Rate / 8
	if clickEvery < 1 {
		clickEvery = 1
	}
	decay := math.Exp(-1 / (0.002 * float64(buf.Rate))) // 2 ms time constant
	for start := rng.Intn(clickEvery); start < len(buf.Samples); start += clickEvery/2 + rng.Intn(clickEvery) {
		amp := 2 + rng.Float64()*3
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		for i := start; i < len(buf.Samples) && amp > 0.01; i++ {
			buf.Samples[i] += sign * amp * rng.NormFloat64()
			amp *= decay
		}
	}
}

// humNoise produces a 120 Hz machinery hum with harmonics plus low-level
// broadband noise, approximating HVAC and refrigeration equipment. The
// harmonic sum depends only on the sample index and rate, so it comes from
// a cached table; only the broadband term draws from rng.
func humNoise(buf *Buffer, rng *rand.Rand) {
	hum := humTable(buf.Rate, len(buf.Samples))
	for i := range buf.Samples {
		buf.Samples[i] = hum[i] + 0.1*rng.NormFloat64()
	}
}

// humSum is the five-harmonic hum at sample i of a rate-Hz recording.
// Every hum sample in the process goes through this one expression, so a
// cached value is bit-identical to a fresh one.
func humSum(i, rate int) float64 {
	base := 120.0 // a variable, not a constant: 2*math.Pi*base rounds at run time
	harmonics := [...]float64{1, 0.5, 0.3, 0.15, 0.08}
	t := float64(i) / float64(rate)
	var v float64
	for h, amp := range harmonics {
		v += amp * math.Sin(2*math.Pi*base*float64(h+1)*t)
	}
	return v
}

// _humTables caches humSum per sample rate (*atomic.Pointer[[]float64] by
// int rate). A published table is never written again; a longer request
// builds a longer copy and swaps it in, so readers need no lock.
var _humTables sync.Map

// humTable returns humSum(i, rate) for i in [0, n).
func humTable(rate, n int) []float64 {
	p, ok := _humTables.Load(rate)
	if !ok {
		p, _ = _humTables.LoadOrStore(rate, new(atomic.Pointer[[]float64]))
	}
	ptr := p.(*atomic.Pointer[[]float64])
	for {
		old := ptr.Load()
		var have []float64
		if old != nil {
			have = *old
		}
		if len(have) >= n {
			return have[:n]
		}
		grown := make([]float64, max(n, 2*len(have)))
		copy(grown, have)
		for i := len(have); i < len(grown); i++ {
			grown[i] = humSum(i, rate)
		}
		if ptr.CompareAndSwap(old, &grown) {
			return grown[:n]
		}
	}
}

// ScaleToSPL rescales the buffer in place so its sound pressure level
// equals the target, per the convention in spl.go.
func ScaleToSPL(buf *Buffer, targetSPL float64) {
	rms := dsp.RMS(buf.Samples)
	if rms == 0 {
		return
	}
	target := PressureFromSPL(targetSPL)
	buf.Gain(target / rms)
}
