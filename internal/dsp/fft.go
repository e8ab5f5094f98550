// Package dsp implements the digital signal processing primitives the
// WearLock acoustic modem is built on: fast Fourier transforms,
// cross-correlation, FIR filtering, windowing, interpolation, and basic
// signal statistics.
//
// Everything here operates on float64 samples or complex128 spectra and is
// written against the standard library only. All transforms are
// deterministic; none of the functions start goroutines or retain references
// to caller-owned slices beyond the duration of the call.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Plan caches the bit-reversal permutation and twiddle factors for a fixed
// power-of-two FFT size so that repeated transforms avoid recomputing
// trigonometry. A Plan is safe for concurrent use after creation.
type Plan struct {
	n        int
	rev      []int        // bit-reversal permutation
	twiddles []complex128 // e^{-2πik/n} for k in [0, n/2)
}

// NewPlan creates an FFT plan for transforms of length n. It returns an
// error if n is not a positive power of two.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a positive power of two", n)
	}
	p := &Plan{
		n:        n,
		rev:      make([]int, n),
		twiddles: make([]complex128, n/2),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := range p.twiddles {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddles[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	return p, nil
}

// Size reports the transform length the plan was created for.
func (p *Plan) Size() int { return p.n }

// Forward computes the discrete Fourier transform of src into dst. The two
// slices must both have the plan's length; dst and src may be the same
// slice. The transform is unnormalized: Forward followed by Inverse
// reproduces the input.
func (p *Plan) Forward(dst, src []complex128) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	p.permute(dst, src)
	p.butterflies(dst, false)
	return nil
}

// Inverse computes the inverse discrete Fourier transform of src into dst,
// including the 1/n normalization.
func (p *Plan) Inverse(dst, src []complex128) error {
	if err := p.check(dst, src); err != nil {
		return err
	}
	p.permute(dst, src)
	p.butterflies(dst, true)
	scale := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
	return nil
}

func (p *Plan) check(dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("dsp: plan size %d does not match dst %d / src %d", p.n, len(dst), len(src))
	}
	if partialOverlap(dst, src) {
		return fmt.Errorf("dsp: dst and src partially overlap; pass identical or disjoint slices")
	}
	return nil
}

// partialOverlap reports whether two equal-length slices share memory
// without being the same slice. Such inputs would silently corrupt the
// bit-reversal permutation: the in-place swap path applies only to exact
// aliasing, and the copy path reads elements the permutation has already
// overwritten. The uintptr comparisons are momentary (no pointer is kept),
// so the slices cannot move mid-check.
func partialOverlap(dst, src []complex128) bool {
	if len(dst) == 0 || len(src) == 0 || &dst[0] == &src[0] {
		return false
	}
	d0 := uintptr(unsafe.Pointer(&dst[0]))
	s0 := uintptr(unsafe.Pointer(&src[0]))
	const elem = unsafe.Sizeof(complex128(0))
	dEnd := d0 + uintptr(len(dst))*elem
	sEnd := s0 + uintptr(len(src))*elem
	return d0 < sEnd && s0 < dEnd
}

// permute copies src into dst in bit-reversed order. It handles the aliased
// (dst == &src) case by swapping in place; partially overlapping slices are
// rejected by check before this runs.
func (p *Plan) permute(dst, src []complex128) {
	if &dst[0] == &src[0] {
		for i, j := range p.rev {
			if i < j {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
		return
	}
	for i, j := range p.rev {
		dst[i] = src[j]
	}
}

func (p *Plan) butterflies(data []complex128, inverse bool) {
	p.butterfliesFrom(data, 2, inverse)
}

// butterfliesFrom runs the butterfly stages for block sizes fromSize..n.
// The k=0 butterfly of every block is peeled out of the twiddle loop: its
// twiddle is exactly 1, so the complex multiply reduces to the identity
// (for finite inputs, bit-for-bit up to the sign of exact zeros). RealPlan
// enters at fromSize=8 after running its specialized real-input stages.
func (p *Plan) butterfliesFrom(data []complex128, fromSize int, inverse bool) {
	n := p.n
	for size := fromSize; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			a0 := data[start]
			b0 := data[start+half]
			data[start] = a0 + b0
			data[start+half] = a0 - b0
			for k := 1; k < half; k++ {
				w := p.twiddles[k*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

// _planCache maps FFT size -> *Plan. The working set is a handful of
// sizes hit millions of times from every worker goroutine of a batch
// sweep, so the cache is a sync.Map: loads after the first miss are
// lock-free, and a racing double-create is harmless (one plan wins, the
// loser is garbage-collected).
var _planCache sync.Map

// planFor returns a cached plan for size n, creating one on first use.
// Safe for concurrent use.
func planFor(n int) (*Plan, error) {
	if p, ok := _planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := _planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// PlanFor returns the shared cached plan for transforms of length n (a
// positive power of two). Callers must treat the plan as read-only; it is
// safe for concurrent use.
func PlanFor(n int) (*Plan, error) { return planFor(n) }

// FFT returns the discrete Fourier transform of x. The length of x must be
// a positive power of two.
func FFT(x []complex128) ([]complex128, error) {
	p, err := planFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Forward(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT returns the inverse discrete Fourier transform of x, normalized by
// 1/len(x). The length of x must be a positive power of two.
func IFFT(x []complex128) ([]complex128, error) {
	p, err := planFor(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Inverse(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// NextPow2 returns the smallest power of two that is >= n, with a minimum
// of 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
