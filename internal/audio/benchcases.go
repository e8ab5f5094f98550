package audio

import (
	"math/rand"

	"wearlock/internal/dsp"
)

// BenchCases builds the audio pair of the DSP fast-path gate
// (cmd/benchdsp): one second of machinery hum at the default rate, its
// harmonic sum computed directly per sample against read from the cached
// table. Both draw the broadband term per sample.
func BenchCases() ([]dsp.BenchCase, error) {
	const rate = DefaultSampleRate
	rng := rand.New(rand.NewSource(42))
	buf := &Buffer{Rate: rate, Samples: make([]float64, rate)}
	return []dsp.BenchCase{{
		Name:                "audio/hum-noise",
		MinSpeedup:          2,
		RequireZeroAllocNew: true,
		Old: func() error {
			for i := range buf.Samples {
				buf.Samples[i] = humSum(i, rate) + 0.1*rng.NormFloat64()
			}
			return nil
		},
		New: func() error {
			humNoise(buf, rng)
			return nil
		},
	}}, nil
}
