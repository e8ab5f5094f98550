package acoustic

import (
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// BenchCases builds the channel-simulator pairs of the DSP fast-path gate
// (cmd/benchdsp), each the allocating form against its Into form on
// persistent buffers: the noise-similarity filter's 0.4 s colocated cafe
// pair, and the three-tone jammer under a 0.54 s recording.
func BenchCases() ([]dsp.BenchCase, error) {
	const rate, n = audio.DefaultSampleRate, 17640
	env := Cafe()
	rng := rand.New(rand.NewSource(42))
	a := &audio.Buffer{Rate: rate, Samples: make([]float64, n)}
	b := &audio.Buffer{Rate: rate, Samples: make([]float64, n)}
	jam, err := NewJammer(62, 2800, 3400, 4100)
	if err != nil {
		return nil, err
	}
	rec := &audio.Buffer{Rate: rate, Samples: make([]float64, 24000)}
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
	}, {
		Name:                "acoustic/jammer-mix-3tone",
		RequireZeroAllocNew: true,
		Old: func() error {
			_, err := jam.Render(rec.Len(), rate, rng)
			return err
		},
		New: func() error {
			clear(rec.Samples) // keep the sum bounded across iterations
			return jam.MixInto(rec, rng)
		},
	}}, nil
}
