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
// interior runs the full window with no range tests, four outputs per
// pass. All keep the ascending tap order, each output in its own
// accumulator, so the floating-point sums do not depend on which loop
// computed them.
func (f *FIRFilter) ApplyInto(dst, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("dsp: FIR dst length %d, want %d", len(dst), len(x))
	}
	lo, hi := f.interior(len(x))
	f.edges(dst, x, lo, hi)
	f.interior1(dst, x, f.interior4(dst, x, lo, hi), hi)
	return nil
}

// applyReference is ApplyInto with the one-output-per-pass interior
// throughout: the bit-equality oracle for the blocked interior and the
// old side of its benchmark pair.
func (f *FIRFilter) applyReference(dst, x []float64) {
	lo, hi := f.interior(len(x))
	f.edges(dst, x, lo, hi)
	f.interior1(dst, x, lo, hi)
}

// interior returns the outputs [lo, hi) of an n-sample input whose window
// x[i+half-m+1 .. i+half] lies wholly inside the input.
func (f *FIRFilter) interior(n int) (lo, hi int) {
	m, half := len(f.taps), len(f.taps)/2
	lo, hi = m-1-half, n-half
	if lo > hi {
		lo, hi = n, n
	}
	return lo, hi
}

// edges computes the outputs outside [lo, hi) over their clipped tap
// ranges.
func (f *FIRFilter) edges(dst, x []float64, lo, hi int) {
	taps := f.taps
	m, half, n := len(taps), len(taps)/2, len(x)
	edge := func(i int) {
		var sum float64
		for j := max(0, i+half-n+1); j <= min(m-1, i+half); j++ {
			sum += taps[j] * x[i+half-j]
		}
		dst[i] = sum
	}
	for i := 0; i < lo; i++ {
		edge(i)
	}
	for i := hi; i < n; i++ {
		edge(i)
	}
}

// interior1 computes the interior outputs [from, hi), one per pass.
func (f *FIRFilter) interior1(dst, x []float64, from, hi int) {
	m, half := len(f.taps), len(f.taps)/2
	for i := from; i < hi; i++ {
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
}

// interior4 computes the interior outputs from lo in blocks of four and
// returns where it stopped. The four sums are independent add chains, so
// they overlap in the pipeline where one chain waits on each add.
func (f *FIRFilter) interior4(dst, x []float64, lo, hi int) int {
	m, half := len(f.taps), len(f.taps)/2
	rev := f.rev
	i := lo
	for ; i+4 <= hi; i += 4 {
		base := i + half + 1 - m
		w0 := x[base : base+m]
		w1 := x[base+1 : base+1+m]
		w2 := x[base+2 : base+2+m]
		w3 := x[base+3 : base+3+m]
		w0, w1, w2, w3 = w0[:len(rev)], w1[:len(rev)], w2[:len(rev)], w3[:len(rev)]
		var s0, s1, s2, s3 float64
		for k := len(rev) - 1; k >= 0; k-- {
			r := rev[k]
			s0 += r * w0[k]
			s1 += r * w1[k]
			s2 += r * w2[k]
			s3 += r * w3[k]
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	return i
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
