package acoustic

import (
	"fmt"
	"math/rand"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
)

// NoiseComponent is one texture in an environment's noise mix.
type NoiseComponent struct {
	Kind   audio.NoiseKind
	Weight float64 // relative linear amplitude weight
}

// Environment describes the ambient noise at a test location. The presets
// mirror the locations of the paper's field test (Table I): office,
// classroom, cafe, and grocery store, plus the quiet room used for
// controlled measurements (Figs. 4-5).
type Environment struct {
	Name     string
	NoiseSPL float64 // ambient level in dB SPL
	Mix      []NoiseComponent
}

// Preset environments.
func QuietRoom() *Environment {
	return &Environment{
		Name:     "quiet-room",
		NoiseSPL: 17, // paper: 15-20 dB SPL
		Mix:      []NoiseComponent{{audio.NoisePink, 1}},
	}
}

// Office reproduces keyboard typing over HVAC hum with light chatter.
func Office() *Environment {
	return &Environment{
		Name:     "office",
		NoiseSPL: 45,
		Mix: []NoiseComponent{
			{audio.NoiseImpulsive, 0.8},
			{audio.NoiseHum, 0.6},
			{audio.NoiseBabble, 0.4},
		},
	}
}

// Classroom reproduces overlapping speech in a reverberant room.
func Classroom() *Environment {
	return &Environment{
		Name:     "classroom",
		NoiseSPL: 52,
		Mix: []NoiseComponent{
			{audio.NoiseBabble, 1},
			{audio.NoisePink, 0.3},
		},
	}
}

// Cafe reproduces dense chatter plus espresso-machine bursts.
func Cafe() *Environment {
	return &Environment{
		Name:     "cafe",
		NoiseSPL: 62,
		Mix: []NoiseComponent{
			{audio.NoiseBabble, 1},
			{audio.NoiseImpulsive, 0.5},
			{audio.NoiseHum, 0.4},
		},
	}
}

// GroceryStore reproduces refrigeration hum with announcements/chatter.
func GroceryStore() *Environment {
	return &Environment{
		Name:     "grocery-store",
		NoiseSPL: 58,
		Mix: []NoiseComponent{
			{audio.NoiseHum, 1},
			{audio.NoiseBabble, 0.7},
		},
	}
}

// AllEnvironments returns the field-test locations in Table I order.
func AllEnvironments() []*Environment {
	return []*Environment{Office(), Classroom(), Cafe(), GroceryStore()}
}

// Render synthesizes n samples of the environment's ambient noise at its
// configured SPL. The returned buffer is freshly allocated and the
// caller's to keep.
func (e *Environment) Render(n, sampleRate int, rng *rand.Rand) (*audio.Buffer, error) {
	buf, err := audio.NewBuffer(sampleRate, n)
	if err != nil {
		return nil, err
	}
	if err := e.RenderInto(buf, rng); err != nil {
		return nil, err
	}
	return buf, nil
}

// RenderInto is Render writing into dst: it overwrites every sample of
// dst.Samples with ambient noise at dst.Rate. The samples and the random
// draws are bit-identical to Render's. The one intermediate (per-component
// noise) buffer is pooled, so steady-state calls allocate nothing.
func (e *Environment) RenderInto(dst *audio.Buffer, rng *rand.Rand) error {
	if err := e.renderUnit(dst, rng); err != nil {
		return err
	}
	audio.ScaleToSPL(dst, e.NoiseSPL)
	return nil
}

// renderUnit mixes the components into dst at unit RMS.
func (e *Environment) renderUnit(dst *audio.Buffer, rng *rand.Rand) error {
	if len(e.Mix) == 0 {
		return fmt.Errorf("acoustic: environment %q has an empty noise mix", e.Name)
	}
	clear(dst.Samples)
	part := audio.Buffer{Rate: dst.Rate, Samples: dsp.GetFloat(dst.Len())}
	defer dsp.PutFloat(part.Samples)
	for _, comp := range e.Mix {
		if err := audio.NoiseInto(&part, comp.Kind, rng); err != nil {
			return fmt.Errorf("acoustic: environment %q: %w", e.Name, err)
		}
		part.Gain(comp.Weight)
		if err := dst.MixAt(0, &part); err != nil {
			return err
		}
	}
	dsp.NormalizeRMS(dst.Samples, 1)
	return nil
}

// RenderPair synthesizes the ambient noise heard simultaneously by two
// microphones. When colocated, both recordings share the same dominant
// noise field plus small independent per-microphone residue, so their
// spectra correlate strongly; when not colocated the fields are drawn
// independently. The ambient-noise similarity pre-filter (Sec. V, after
// Sound-Proof) depends on exactly this property. Both buffers are freshly
// allocated and the caller's to keep.
func (e *Environment) RenderPair(n, sampleRate int, colocated bool, rng *rand.Rand) (*audio.Buffer, *audio.Buffer, error) {
	a, err := audio.NewBuffer(sampleRate, n)
	if err != nil {
		return nil, nil, err
	}
	b, err := audio.NewBuffer(sampleRate, n)
	if err != nil {
		return nil, nil, err
	}
	if err := e.RenderPairInto(a, b, colocated, rng); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// RenderPairInto is RenderPair writing into a and b, which must have the
// same rate and length. Samples and random draws are bit-identical to
// RenderPair's, and steady-state calls allocate nothing.
func (e *Environment) RenderPairInto(a, b *audio.Buffer, colocated bool, rng *rand.Rand) error {
	if a.Rate != b.Rate || a.Len() != b.Len() {
		return fmt.Errorf("acoustic: render pair into %d@%d Hz and %d@%d Hz buffers", a.Len(), a.Rate, b.Len(), b.Rate)
	}
	if !colocated {
		if err := e.RenderInto(a, rng); err != nil {
			return err
		}
		return e.RenderInto(b, rng)
	}
	if err := e.renderUnit(a, rng); err != nil {
		return err
	}
	copy(b.Samples, a.Samples)
	const residue = 0.15 // independent mic-position residue
	for _, buf := range [...]*audio.Buffer{a, b} {
		for i := range buf.Samples {
			buf.Samples[i] += residue * rng.NormFloat64()
		}
		audio.ScaleToSPL(buf, e.NoiseSPL)
	}
	return nil
}
