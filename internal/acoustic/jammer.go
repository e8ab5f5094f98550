package acoustic

import (
	"fmt"
	"math"
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// Jammer models the external tone generator used in the sub-channel
// selection experiment (Fig. 9): an Audacity instance playing up to six
// simultaneous mono tone tracks at randomly chosen sub-channel frequencies.
type Jammer struct {
	ToneHz []float64 // tone frequencies
	SPL    float64   // level of each tone at the receiver
}

// MaxJammerTones matches the six mono tracks Audacity supports.
const MaxJammerTones = 6

// NewJammer creates a jammer with explicit tone frequencies.
func NewJammer(spl float64, toneHz ...float64) (*Jammer, error) {
	if len(toneHz) > MaxJammerTones {
		return nil, fmt.Errorf("acoustic: jammer supports at most %d tones, got %d", MaxJammerTones, len(toneHz))
	}
	tones := make([]float64, len(toneHz))
	copy(tones, toneHz)
	return &Jammer{ToneHz: tones, SPL: spl}, nil
}

// RandomJammer picks numTones distinct frequencies from candidates, as the
// paper does ("the jammed sub-channel index is randomly selected every
// time").
func RandomJammer(spl float64, numTones int, candidatesHz []float64, rng *rand.Rand) (*Jammer, error) {
	if numTones < 0 || numTones > MaxJammerTones {
		return nil, fmt.Errorf("acoustic: jammer tone count %d outside [0, %d]", numTones, MaxJammerTones)
	}
	if numTones > len(candidatesHz) {
		return nil, fmt.Errorf("acoustic: jammer needs %d tones but only %d candidates", numTones, len(candidatesHz))
	}
	perm := rng.Perm(len(candidatesHz))
	tones := make([]float64, numTones)
	for i := 0; i < numTones; i++ {
		tones[i] = candidatesHz[perm[i]]
	}
	return &Jammer{ToneHz: tones, SPL: spl}, nil
}

// Render synthesizes n samples of the combined jammer signal at the
// receiver into a fresh, caller-owned buffer. Each tone individually sits
// at the jammer's SPL.
func (j *Jammer) Render(n, sampleRate int, rng *rand.Rand) (*audio.Buffer, error) {
	out, err := audio.NewBuffer(sampleRate, n)
	if err != nil {
		return nil, err
	}
	if err := j.MixInto(out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// MixInto adds the jammer signal Render would return for dst's length and
// rate onto dst. The tones are summed in one pooled scratch buffer that
// is then added to dst, so dst sees the same sums, in the same order, as
// mixing a Render result; the random phases are drawn the same way. It
// allocates nothing in steady state, and leaves dst untouched on error.
func (j *Jammer) MixInto(dst *audio.Buffer, rng *rand.Rand) error {
	if len(j.ToneHz) == 0 {
		return nil
	}
	n := dst.Len()
	sum := audio.Buffer{Rate: dst.Rate, Samples: dsp.GetFloat(n)}
	defer dsp.PutFloat(sum.Samples)
	// RMS of a sine is amp/sqrt(2); solve amp for the target SPL.
	amp := audio.PressureFromSPL(j.SPL) * 1.4142135623730951
	for _, freq := range j.ToneHz {
		phase := 0.0
		if rng != nil {
			phase = rng.Float64() * 6.283185307179586
		}
		omega, err := audio.ToneOmega(freq, dst.Rate)
		if err != nil {
			return fmt.Errorf("acoustic: jammer tone %.1f Hz: %w", freq, err)
		}
		// The random starting phase rotates the tone left by shift
		// samples: sample i is the unrotated tone's sample (i+shift) mod n.
		shift := 0
		if phase != 0 {
			if s := int(phase / 6.283185307179586 * float64(dst.Rate) / freq); s > 0 && s < n {
				shift = s
			}
		}
		k := shift
		for i := range sum.Samples {
			// The explicit conversion rounds the product before the add,
			// so no fused multiply-add can change the sum.
			sum.Samples[i] += float64(amp * math.Sin(omega*float64(k)))
			if k++; k == n {
				k = 0
			}
		}
	}
	return dst.MixAt(0, &sum)
}
