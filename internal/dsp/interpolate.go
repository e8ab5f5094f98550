package dsp

import (
	"fmt"
)

// InterpolateFFT expands a sequence of n complex samples to length m >= n
// using FFT-based (periodic band-limited) interpolation: transform, zero-pad
// the spectrum symmetrically, inverse-transform, and rescale. The WearLock
// equalizer uses this to expand the channel estimate observed on the
// equally-spaced pilot sub-channels to the full set of data sub-channels
// (Sec. III-6). Both n and m must be powers of two.
func InterpolateFFT(x []complex128, m int) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("dsp: cannot interpolate empty sequence")
	}
	if m < n {
		return nil, fmt.Errorf("dsp: interpolation target %d shorter than input %d", m, n)
	}
	if n&(n-1) != 0 || m&(m-1) != 0 {
		return nil, fmt.Errorf("dsp: interpolation sizes %d -> %d must be powers of two", n, m)
	}
	if m == n {
		out := make([]complex128, n)
		copy(out, x)
		return out, nil
	}
	out := make([]complex128, m)
	scratch := GetComplex(n)
	defer PutComplex(scratch)
	if err := InterpolateFFTInto(out, x, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// InterpolateFFTInto is the scratch-accepting form of InterpolateFFT: it
// writes the length-m interpolation of x into dst (m = len(dst)) using
// scratch (length len(x)) for the forward spectrum, allocating nothing.
// dst and scratch must not overlap x or each other. Results are
// bit-identical to InterpolateFFT.
func InterpolateFFTInto(dst, x, scratch []complex128) error {
	n := len(x)
	m := len(dst)
	if n == 0 {
		return fmt.Errorf("dsp: cannot interpolate empty sequence")
	}
	if m < n {
		return fmt.Errorf("dsp: interpolation target %d shorter than input %d", m, n)
	}
	if n&(n-1) != 0 || m&(m-1) != 0 {
		return fmt.Errorf("dsp: interpolation sizes %d -> %d must be powers of two", n, m)
	}
	if m == n {
		copy(dst, x)
		return nil
	}
	if len(scratch) != n {
		return fmt.Errorf("dsp: interpolation scratch length %d, want %d", len(scratch), n)
	}
	p, err := planFor(n)
	if err != nil {
		return err
	}
	if err := p.Forward(scratch, x); err != nil {
		return err
	}
	spec := scratch
	half := n / 2
	for i := range dst {
		dst[i] = 0
	}
	copy(dst[:half], spec[:half])
	copy(dst[m-half:], spec[half:])
	// Split the Nyquist bin across the two halves to keep the interpolated
	// sequence consistent with a real-valued underlying spectrum envelope.
	dst[half] = spec[half] / 2
	dst[m-half] = spec[half] / 2
	mp, err := planFor(m)
	if err != nil {
		return err
	}
	if err := mp.Inverse(dst, dst); err != nil {
		return err
	}
	scale := complex(float64(m)/float64(n), 0)
	for i := range dst {
		dst[i] *= scale
	}
	return nil
}

// InterpolateLinearComplex linearly interpolates known complex values at
// the given strictly-increasing integer positions onto every integer in
// [0, length). Positions outside the known range are clamped to the nearest
// known value. It is the simpler alternative the equalizer ablation
// compares against.
func InterpolateLinearComplex(positions []int, values []complex128, length int) ([]complex128, error) {
	if len(positions) == 0 || len(positions) != len(values) {
		return nil, fmt.Errorf("dsp: interpolation needs matching positions (%d) and values (%d)", len(positions), len(values))
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return nil, fmt.Errorf("dsp: interpolation positions must be strictly increasing")
		}
	}
	out := make([]complex128, length)
	seg := 0
	for i := 0; i < length; i++ {
		switch {
		case i <= positions[0]:
			out[i] = values[0]
		case i >= positions[len(positions)-1]:
			out[i] = values[len(values)-1]
		default:
			for positions[seg+1] < i {
				seg++
			}
			lo, hi := positions[seg], positions[seg+1]
			t := complex(float64(i-lo)/float64(hi-lo), 0)
			out[i] = values[seg]*(1-t) + values[seg+1]*t
		}
	}
	return out, nil
}

// NearestComplex maps each integer in [0, length) to the value of the
// nearest known position (ties go to the lower position). Used by the
// nearest-pilot equalizer ablation.
func NearestComplex(positions []int, values []complex128, length int) ([]complex128, error) {
	if len(positions) == 0 || len(positions) != len(values) {
		return nil, fmt.Errorf("dsp: interpolation needs matching positions (%d) and values (%d)", len(positions), len(values))
	}
	out := make([]complex128, length)
	for i := 0; i < length; i++ {
		best := 0
		bestDist := absInt(i - positions[0])
		for j := 1; j < len(positions); j++ {
			if d := absInt(i - positions[j]); d < bestDist {
				best, bestDist = j, d
			}
		}
		out[i] = values[best]
	}
	return out, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
