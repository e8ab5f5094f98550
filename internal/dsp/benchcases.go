package dsp

import (
	"math"
	"math/rand"
)

// BenchCase is one old-vs-new benchmark pair of the DSP fast-path
// regression gate; see the identically named type in the modem package.
// Old runs one iteration of the allocating entry point, New one iteration
// of the scratch-accepting fast path on persistent buffers.
type BenchCase struct {
	Name                string
	MinSpeedup          float64
	RequireZeroAllocNew bool
	Old, New            func() error
}

// BenchCases builds the dsp benchmark pairs over deterministic fixtures
// sized like the modem and channel-simulator hot paths: 256-point symbol
// transforms, a preamble search over an 8k-sample recording, the
// 8-pilot-to-32-bin equalizer interpolation, the three-bin tone detector,
// and the 129-tap babble band-pass over 100 ms of audio, and over one
// second against the one-output-per-pass interior.
func BenchCases() ([]BenchCase, error) {
	sig := benchCaseSignal(8192)
	sym := benchCaseSignal(256)
	tmpl := benchCaseSignal(256)

	p, err := PlanFor(256)
	if err != nil {
		return nil, err
	}
	rp, err := RealPlanFor(256)
	if err != nil {
		return nil, err
	}
	fwdBuf := make([]complex128, 256)

	corr, err := NewCorrelator(tmpl)
	if err != nil {
		return nil, err
	}
	corrDst := make([]float64, corr.OutLen(len(sig)))
	var corrScratch CorrScratch

	pilots := make([]complex128, 8)
	for i := range pilots {
		pilots[i] = complex(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	interpDst := make([]complex128, 32)
	interpScratch := make([]complex128, 8)

	tone := benchCaseSignal(4096)
	freqs := []float64{1000, 1450, 550}
	var toneDst [3]float64

	bp, err := BandPassFIR(300, 3400, 44100, 129)
	if err != nil {
		return nil, err
	}
	audio := benchCaseSignal(4410)
	firDst := make([]float64, len(audio))
	second := benchCaseSignal(44100)
	secondDst := make([]float64, len(second))

	return []BenchCase{
		{
			Name:                "dsp/fft-real-256",
			RequireZeroAllocNew: true,
			Old: func() error {
				for j, v := range sym {
					fwdBuf[j] = complex(v, 0)
				}
				return p.Forward(fwdBuf, fwdBuf)
			},
			New: func() error {
				return rp.Forward(fwdBuf, sym)
			},
		},
		{
			Name:                "dsp/preamble-correlate-8k",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := CrossCorrelate(sig, tmpl)
				return err
			},
			New: func() error {
				return corr.CrossCorrelate(corrDst, sig, &corrScratch)
			},
		},
		{
			Name:                "dsp/interpolate-fft-8to32",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				_, err := InterpolateFFT(pilots, 32)
				return err
			},
			New: func() error {
				return InterpolateFFTInto(interpDst, pilots, interpScratch)
			},
		},
		{
			Name:                "dsp/goertzel-3bins",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				for _, f := range freqs {
					if _, err := Goertzel(tone, f, 44100); err != nil {
						return err
					}
				}
				return nil
			},
			New: func() error {
				return GoertzelBatch(toneDst[:], tone, freqs, 44100)
			},
		},
		{
			Name:                "dsp/fir-bandpass-129",
			RequireZeroAllocNew: true,
			Old: func() error {
				bp.Apply(audio)
				return nil
			},
			New: func() error {
				return bp.ApplyInto(firDst, audio)
			},
		},
		{
			Name:                "dsp/fir-blocked-129x44100",
			MinSpeedup:          1.2,
			RequireZeroAllocNew: true,
			Old: func() error {
				bp.applyReference(secondDst, second)
				return nil
			},
			New: func() error {
				return bp.ApplyInto(secondDst, second)
			},
		},
	}, nil
}

func benchCaseSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.1) + 0.3*rng.NormFloat64()
	}
	return x
}
