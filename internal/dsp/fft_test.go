package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted a non-power-of-two", n)
		}
	}
	for _, n := range []int{1, 2, 4, 256, 1024} {
		if _, err := NewPlan(n); err != nil {
			t.Errorf("NewPlan(%d): %v", n, err)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// The DFT of a unit impulse is flat 1 across all bins.
	x := make([]complex128, 16)
	x[0] = 1
	spec, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	for k, v := range spec {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSineBin(t *testing.T) {
	// A pure complex exponential at bin 5 concentrates all energy there.
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * 5 * float64(i) / n
		x[i] = cmplx.Rect(1, angle)
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	for k, v := range spec {
		want := 0.0
		if k == 5 {
			want = n
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %.6f, want %.1f", k, cmplx.Abs(v), want)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	var freqEnergy float64
	for _, v := range spec {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= n
	if math.Abs(timeEnergy-freqEnergy)/timeEnergy > 1e-10 {
		t.Errorf("Parseval violated: time %.6f vs freq %.6f", timeEnergy, freqEnergy)
	}
}

// Property: IFFT(FFT(x)) == x for random inputs and sizes.
func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeExp uint8) bool {
		n := 1 << (int(sizeExp)%8 + 1) // 2..256
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFFTRealHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 128
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := make([]complex128, n)
	if err := RealForward(spec, x); err != nil {
		t.Fatalf("RealForward: %v", err)
	}
	for k := 1; k < n/2; k++ {
		if cmplx.Abs(spec[n-k]-cmplx.Conj(spec[k])) > 1e-9 {
			t.Errorf("Hermitian symmetry violated at bin %d", k)
		}
	}
}

func TestPlanInPlace(t *testing.T) {
	plan, err := NewPlan(32)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 32)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	want, err := FFT(x)
	if err != nil {
		t.Fatalf("FFT: %v", err)
	}
	// Aliased in-place transform must match the out-of-place result.
	if err := plan.Forward(x, x); err != nil {
		t.Fatalf("Forward in place: %v", err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("in-place result differs at %d", i)
		}
	}
}

func TestPlanSizeMismatch(t *testing.T) {
	plan, err := NewPlan(16)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	if err := plan.Forward(make([]complex128, 8), make([]complex128, 16)); err == nil {
		t.Error("Forward accepted mismatched dst")
	}
	if err := plan.Inverse(make([]complex128, 16), make([]complex128, 8)); err == nil {
		t.Error("Inverse accepted mismatched src")
	}
	if plan.Size() != 16 {
		t.Errorf("Size() = %d, want 16", plan.Size())
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
