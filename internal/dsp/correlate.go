package dsp

import (
	"fmt"
	"math"
)

// CrossCorrelate computes the sliding cross-correlation of signal with
// template. The result has length len(signal)-len(template)+1; result[i] is
// the inner product of template with signal[i:i+len(template)].
//
// For long inputs the computation is performed in the frequency domain
// (overlap-free single block), which the preamble detector relies on for
// real-time performance; short inputs fall back to the direct method.
func CrossCorrelate(signal, template []float64) ([]float64, error) {
	if len(template) == 0 {
		return nil, fmt.Errorf("dsp: empty correlation template")
	}
	if len(signal) < len(template) {
		return nil, fmt.Errorf("dsp: signal length %d shorter than template %d", len(signal), len(template))
	}
	const directThreshold = 4096 // below this many MACs-per-lag, direct wins
	if len(template) <= 64 || len(signal)*len(template) <= directThreshold {
		return crossCorrelateDirect(signal, template), nil
	}
	return crossCorrelateFFT(signal, template)
}

func crossCorrelateDirect(signal, template []float64) []float64 {
	out := make([]float64, len(signal)-len(template)+1)
	for i := range out {
		var sum float64
		window := signal[i : i+len(template)]
		for j, t := range template {
			sum += window[j] * t
		}
		out[i] = sum
	}
	return out
}

func crossCorrelateFFT(signal, template []float64) ([]float64, error) {
	n := NextPow2(len(signal) + len(template))
	p, err := planFor(n)
	if err != nil {
		return nil, err
	}
	a := GetComplex(n)
	defer PutComplex(a)
	b := GetComplex(n)
	defer PutComplex(b)
	for i, v := range signal {
		a[i] = complex(v, 0)
	}
	// Correlation is convolution with the time-reversed template.
	for i, v := range template {
		b[i] = complex(v, 0)
	}
	if err := p.Forward(a, a); err != nil {
		return nil, err
	}
	if err := p.Forward(b, b); err != nil {
		return nil, err
	}
	for i := range a {
		a[i] *= complex(real(b[i]), -imag(b[i])) // conj(B): correlation theorem
	}
	if err := p.Inverse(a, a); err != nil {
		return nil, err
	}
	out := make([]float64, len(signal)-len(template)+1)
	for i := range out {
		out[i] = real(a[i])
	}
	return out, nil
}

// NormalizedCrossCorrelate computes the normalized cross-correlation score
// at every lag: the raw correlation divided by the product of the template
// norm and the local signal-window norm. Scores lie in [-1, 1]; a score
// near 1 indicates the template is present at that lag. Windows with
// negligible energy produce a score of 0 rather than dividing by zero.
func NormalizedCrossCorrelate(signal, template []float64) ([]float64, error) {
	raw, err := CrossCorrelate(signal, template)
	if err != nil {
		return nil, err
	}
	var tEnergy float64
	for _, t := range template {
		tEnergy += t * t
	}
	tNorm := math.Sqrt(tEnergy)
	if tNorm == 0 {
		return nil, fmt.Errorf("dsp: correlation template has zero energy")
	}

	// Running window energy over the signal for O(n) normalization.
	var wEnergy float64
	for _, v := range signal[:len(template)] {
		wEnergy += v * v
	}
	const epsilon = 1e-12
	out := make([]float64, len(raw))
	for i := range raw {
		denom := tNorm * math.Sqrt(math.Max(wEnergy, 0))
		if denom > epsilon {
			out[i] = raw[i] / denom
		}
		if i+len(template) < len(signal) {
			leaving := signal[i]
			entering := signal[i+len(template)]
			wEnergy += entering*entering - leaving*leaving
		}
	}
	return out, nil
}

// PeakLag returns the index and value of the maximum element of scores. It
// returns an error for an empty input.
func PeakLag(scores []float64) (int, float64, error) {
	if len(scores) == 0 {
		return 0, 0, fmt.Errorf("dsp: empty score sequence")
	}
	best, bestVal := 0, scores[0]
	for i, v := range scores[1:] {
		if v > bestVal {
			best, bestVal = i+1, v
		}
	}
	return best, bestVal, nil
}

// PearsonCorrelation returns the Pearson correlation coefficient of two
// equal-length sequences. It is used by the ambient-noise similarity filter
// to compare spectra captured on the phone and the watch.
func PearsonCorrelation(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dsp: correlation length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("dsp: empty correlation input")
	}
	meanA := Mean(a)
	meanB := Mean(b)
	var cov, varA, varB float64
	for i := range a {
		da := a[i] - meanA
		db := b[i] - meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(varA*varB), nil
}
