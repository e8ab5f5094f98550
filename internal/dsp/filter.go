package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a finite-impulse-response filter defined by its tap
// coefficients. The zero value is unusable; construct filters with
// LowPassFIR, HighPassFIR, BandPassFIR, or NewFIRFilter.
type FIRFilter struct {
	taps []float64
	rev  []float64 // taps reversed, for the interior loop of ApplyInto
}

func newFIR(taps []float64) *FIRFilter {
	rev := make([]float64, len(taps))
	for i, t := range taps {
		rev[len(taps)-1-i] = t
	}
	return &FIRFilter{taps: taps, rev: rev}
}

// NewFIRFilter wraps an explicit tap vector as a filter. The taps are
// copied so the caller may reuse its slice.
func NewFIRFilter(taps []float64) (*FIRFilter, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR filter requires at least one tap")
	}
	return newFIR(append([]float64(nil), taps...)), nil
}

// Taps returns a copy of the filter coefficients.
func (f *FIRFilter) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// Len reports the number of taps.
func (f *FIRFilter) Len() int { return len(f.taps) }

// Apply filters x and returns a new slice of the same length. The filter
// output is aligned so that the group delay of the (linear-phase) filter is
// compensated: output sample i corresponds to input sample i.
func (f *FIRFilter) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	_ = f.ApplyInto(out, x) // lengths match by construction
	return out
}

// ApplyInto is Apply writing into dst, which must have len(x) samples and
// must not overlap x. It allocates nothing.
//
// Output sample i is the sum over taps j, in ascending order, of
// taps[j]*x[i+half-j] for every in-range input index. Outputs whose
// window hangs off either end of x run the clipped tap range; the
// interior runs the full window with no range tests. Both keep the
// ascending tap order, so the floating-point sums do not depend on which
// loop computed them.
func (f *FIRFilter) ApplyInto(dst, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("dsp: FIR dst length %d, want %d", len(dst), len(x))
	}
	taps := f.taps
	m, half, n := len(taps), len(taps)/2, len(x)
	edge := func(i int) {
		var sum float64
		for j := max(0, i+half-n+1); j <= min(m-1, i+half); j++ {
			sum += taps[j] * x[i+half-j]
		}
		dst[i] = sum
	}
	// Interior outputs read x[i+half-m+1 .. i+half], all in range.
	lo, hi := m-1-half, n-half
	if lo > hi {
		lo, hi = n, n
	}
	for i := 0; i < lo; i++ {
		edge(i)
	}
	for i := lo; i < hi; i++ {
		// w[k] pairs with rev[k] = taps[m-1-k]; descending k is
		// ascending tap order.
		w := x[i+half+1-m : i+half+1]
		rev := f.rev[:len(w)]
		var sum float64
		for k := len(w) - 1; k >= 0; k-- {
			sum += rev[k] * w[k]
		}
		dst[i] = sum
	}
	for i := hi; i < n; i++ {
		edge(i)
	}
	return nil
}

// ApplyCausal filters x without group-delay compensation, as a streaming
// convolution would: output sample i depends only on inputs <= i.
func (f *FIRFilter) ApplyCausal(x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		var sum float64
		for j, tap := range f.taps {
			if k := i - j; k >= 0 {
				sum += tap * x[k]
			}
		}
		out[i] = sum
	}
	return out
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// LowPassFIR designs a windowed-sinc low-pass filter with the given cutoff
// frequency (Hz) at the given sampling rate (Hz) using numTaps taps and a
// Hamming window. numTaps is forced odd so the filter is symmetric.
func LowPassFIR(cutoffHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %.1f Hz outside (0, %.1f)", cutoffHz, sampleRate/2)
	}
	if numTaps < 3 {
		return nil, fmt.Errorf("dsp: low-pass filter needs at least 3 taps, got %d", numTaps)
	}
	if numTaps%2 == 0 {
		numTaps++
	}
	fc := cutoffHz / sampleRate
	taps := make([]float64, numTaps)
	window, err := Window(WindowHamming, numTaps)
	if err != nil {
		return nil, err
	}
	mid := numTaps / 2
	var sum float64
	for i := range taps {
		taps[i] = 2 * fc * sinc(2*fc*float64(i-mid)) * window[i]
		sum += taps[i]
	}
	// Normalize for unity DC gain.
	for i := range taps {
		taps[i] /= sum
	}
	return newFIR(taps), nil
}

// HighPassFIR designs a windowed-sinc high-pass filter by spectral inversion
// of the complementary low-pass filter.
func HighPassFIR(cutoffHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	lp, err := LowPassFIR(cutoffHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	taps := lp.taps
	for i := range taps {
		taps[i] = -taps[i]
	}
	taps[len(taps)/2] += 1
	return newFIR(taps), nil
}

// BandPassFIR designs a windowed-sinc band-pass filter passing
// [lowHz, highHz].
func BandPassFIR(lowHz, highHz, sampleRate float64, numTaps int) (*FIRFilter, error) {
	if lowHz >= highHz {
		return nil, fmt.Errorf("dsp: band-pass low %.1f >= high %.1f", lowHz, highHz)
	}
	lpHigh, err := LowPassFIR(highHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	lpLow, err := LowPassFIR(lowHz, sampleRate, numTaps)
	if err != nil {
		return nil, err
	}
	taps := lpHigh.taps
	for i := range taps {
		taps[i] -= lpLow.taps[i]
	}
	return newFIR(taps), nil
}

// Convolve returns the full linear convolution of a and b, of length
// len(a)+len(b)-1. The acoustic channel simulator uses this to apply
// speaker/room impulse responses.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	if err := ConvolveInto(out, a, b); err != nil {
		return nil
	}
	return out
}

// ConvolveInto writes the full linear convolution of a and b into dst,
// which must have length len(a)+len(b)-1. Frequency-domain scratch comes
// from the shared pool, so steady-state calls allocate nothing. Results
// are bit-identical to Convolve.
func ConvolveInto(dst, a, b []float64) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("dsp: convolution with empty input")
	}
	if want := len(a) + len(b) - 1; len(dst) != want {
		return fmt.Errorf("dsp: convolution dst length %d, want %d", len(dst), want)
	}
	// Frequency-domain convolution for large inputs.
	if len(a)*len(b) > 1<<16 {
		n := NextPow2(len(dst))
		if p, err := planFor(n); err == nil {
			fa := GetComplex(n)
			fb := GetComplex(n)
			for i, v := range a {
				fa[i] = complex(v, 0)
			}
			for i, v := range b {
				fb[i] = complex(v, 0)
			}
			if p.Forward(fa, fa) == nil && p.Forward(fb, fb) == nil {
				for i := range fa {
					fa[i] *= fb[i]
				}
				if p.Inverse(fa, fa) == nil {
					for i := range dst {
						dst[i] = real(fa[i])
					}
					PutComplex(fa)
					PutComplex(fb)
					return nil
				}
			}
			PutComplex(fa)
			PutComplex(fb)
		}
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, av := range a {
		for j, bv := range b {
			dst[i+j] += av * bv
		}
	}
	return nil
}
