package acoustic

import (
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// BenchCases builds the channel-simulator pairs of the DSP fast-path gate
// (cmd/benchdsp): the noise-similarity filter's 0.4 s colocated cafe pair,
// allocating RenderPair against RenderPairInto on persistent buffers.
func BenchCases() ([]dsp.BenchCase, error) {
	const rate, n = audio.DefaultSampleRate, 17640
	env := Cafe()
	rng := rand.New(rand.NewSource(42))
	a := &audio.Buffer{Rate: rate, Samples: make([]float64, n)}
	b := &audio.Buffer{Rate: rate, Samples: make([]float64, n)}
	return []dsp.BenchCase{{
		Name:                "acoustic/render-pair-cafe",
		RequireZeroAllocNew: true,
		Old: func() error {
			_, _, err := env.RenderPair(n, rate, true, rng)
			return err
		},
		New: func() error {
			return env.RenderPairInto(a, b, true, rng)
		},
	}}, nil
}
