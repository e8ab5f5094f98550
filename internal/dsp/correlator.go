package dsp

import (
	"fmt"
	"math"
	"sync"
)

// Correlator performs repeated cross-correlations against a fixed template
// without per-call allocation. The template's FFT is computed once per
// transform size and cached for the lifetime of the Correlator, which is
// the "pre-transform the preamble once" optimization the detector hot path
// relies on: per frame, only the signal side is transformed.
//
// Results are bit-identical to CrossCorrelate / NormalizedCrossCorrelate:
// the same direct-vs-FFT threshold, the same transform order, and the same
// normalization arithmetic.
//
// A Correlator holds only the immutable template and its spectrum cache,
// so one instance may be shared by any number of goroutines; the signal
// side's scratch lives in a caller-held CorrScratch instead. The
// constructor copies the template, so the caller may reuse its slice.
type Correlator struct {
	template []float64
	tEnergy  float64

	// specs caches the template spectrum per FFT size. A spectrum is
	// never written after it is stored, so readers use it unlocked.
	mu    sync.Mutex
	specs map[int][]complex128
}

// CorrScratch is the signal-side scratch of one Correlator call: the
// zero-padded signal and its spectrum, grown to the largest transform seen.
// The zero value is ready to use. A scratch serves one call at a time;
// give each goroutine its own.
type CorrScratch struct {
	sig    []complex128
	padded []float64
}

// NewCorrelator builds a reusable correlator for the given template.
func NewCorrelator(template []float64) (*Correlator, error) {
	if len(template) == 0 {
		return nil, fmt.Errorf("dsp: empty correlation template")
	}
	c := &Correlator{
		template: append([]float64(nil), template...),
		specs:    make(map[int][]complex128),
	}
	for _, t := range c.template {
		c.tEnergy += t * t
	}
	return c, nil
}

// TemplateLen reports the template length.
func (c *Correlator) TemplateLen() int { return len(c.template) }

// OutLen reports the correlation output length for a signal of the given
// length: sigLen - len(template) + 1.
func (c *Correlator) OutLen(sigLen int) int { return sigLen - len(c.template) + 1 }

// CrossCorrelate writes the sliding cross-correlation of signal with the
// template into dst, which must have length OutLen(len(signal)), using s
// (non-nil) for the signal-side scratch. Once s and the template spectrum
// cache are warm at a transform size, no allocations occur.
func (c *Correlator) CrossCorrelate(dst, signal []float64, s *CorrScratch) error {
	if len(signal) < len(c.template) {
		return fmt.Errorf("dsp: signal length %d shorter than template %d", len(signal), len(c.template))
	}
	if want := c.OutLen(len(signal)); len(dst) != want {
		return fmt.Errorf("dsp: correlation dst length %d, want %d", len(dst), want)
	}
	const directThreshold = 4096 // mirror CrossCorrelate's crossover
	if len(c.template) <= 64 || len(signal)*len(c.template) <= directThreshold {
		for i := range dst {
			var sum float64
			window := signal[i : i+len(c.template)]
			for j, t := range c.template {
				sum += window[j] * t
			}
			dst[i] = sum
		}
		return nil
	}
	n := NextPow2(len(signal) + len(c.template))
	rp, err := RealPlanFor(n)
	if err != nil {
		return err
	}
	spec, err := c.templateSpectrum(n, rp)
	if err != nil {
		return err
	}
	if cap(s.sig) < n {
		s.sig = make([]complex128, n)
	}
	if cap(s.padded) < n {
		s.padded = make([]float64, n)
	}
	a := s.sig[:n]
	pad := s.padded[:n]
	copy(pad, signal)
	clear(pad[len(signal):])
	if err := rp.Forward(a, pad); err != nil {
		return err
	}
	for i := range a {
		a[i] *= complex(real(spec[i]), -imag(spec[i])) // conj(B): correlation theorem
	}
	if err := rp.p.Inverse(a, a); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = real(a[i])
	}
	return nil
}

// templateSpectrum returns the cached n-point FFT of the template,
// computing and caching it on first use at this size.
func (c *Correlator) templateSpectrum(n int, rp *RealPlan) ([]complex128, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if spec, ok := c.specs[n]; ok {
		return spec, nil
	}
	pad := make([]float64, n)
	copy(pad, c.template)
	spec := make([]complex128, n)
	if err := rp.Forward(spec, pad); err != nil {
		return nil, err
	}
	c.specs[n] = spec
	return spec, nil
}

// Normalized writes the normalized cross-correlation score at every lag
// into dst (length OutLen(len(signal))), dividing the raw correlation by
// the template norm times the local window norm exactly as
// NormalizedCrossCorrelate does.
func (c *Correlator) Normalized(dst, signal []float64, s *CorrScratch) error {
	tNorm := math.Sqrt(c.tEnergy)
	if tNorm == 0 {
		return fmt.Errorf("dsp: correlation template has zero energy")
	}
	if err := c.CrossCorrelate(dst, signal, s); err != nil {
		return err
	}
	var wEnergy float64
	for _, v := range signal[:len(c.template)] {
		wEnergy += v * v
	}
	const epsilon = 1e-12
	for i := range dst {
		denom := tNorm * math.Sqrt(math.Max(wEnergy, 0))
		if denom > epsilon {
			dst[i] = dst[i] / denom
		} else {
			dst[i] = 0
		}
		if i+len(c.template) < len(signal) {
			leaving := signal[i]
			entering := signal[i+len(c.template)]
			wEnergy += entering*entering - leaving*leaving
		}
	}
	return nil
}
