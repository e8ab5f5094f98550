package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowShapes(t *testing.T) {
	for _, kind := range []WindowKind{WindowRectangular, WindowHann, WindowHamming, WindowBlackman} {
		w, err := Window(kind, 65)
		if err != nil {
			t.Fatalf("Window(%s): %v", kind, err)
		}
		if len(w) != 65 {
			t.Fatalf("Window(%s) length %d", kind, len(w))
		}
		// Symmetric and bounded.
		for i := range w {
			if w[i] < -1e-12 || w[i] > 1+1e-12 {
				t.Errorf("%s[%d] = %f outside [0, 1]", kind, i, w[i])
			}
			if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
				t.Errorf("%s not symmetric at %d", kind, i)
			}
		}
		// Peak at center.
		if kind != WindowRectangular && math.Abs(w[32]-maxOf(w)) > 1e-12 {
			t.Errorf("%s peak not at center", kind)
		}
	}
	if _, err := Window(WindowHann, 0); err == nil {
		t.Error("accepted zero length")
	}
	if _, err := Window(WindowKind(99), 8); err == nil {
		t.Error("accepted unknown kind")
	}
	one, err := Window(WindowHann, 1)
	if err != nil || one[0] != 1 {
		t.Errorf("Window(hann, 1) = %v, %v", one, err)
	}
}

func maxOf(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func TestApplyWindow(t *testing.T) {
	x := []float64{2, 2, 2}
	if err := ApplyWindow(x, []float64{0.5, 1, 0.5}); err != nil {
		t.Fatalf("ApplyWindow: %v", err)
	}
	want := []float64{1, 2, 1}
	for i := range x {
		if x[i] != want[i] {
			t.Errorf("x[%d] = %f, want %f", i, x[i], want[i])
		}
	}
	if err := ApplyWindow(x, []float64{1}); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

func TestFadeEdges(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 1
	}
	FadeEdges(x, 10)
	if x[0] != 0 {
		t.Errorf("first sample %f, want 0", x[0])
	}
	if x[50] != 1 {
		t.Errorf("middle sample %f, want 1 (untouched)", x[50])
	}
	if x[len(x)-1] != 0 {
		t.Errorf("last sample %f, want 0", x[len(x)-1])
	}
	// Degenerate inputs must not panic.
	FadeEdges(nil, 5)
	FadeEdges(x, 0)
	FadeEdges(x, 1000) // ramp clamped to half length
}

func TestInterpolateFFTConstant(t *testing.T) {
	x := []complex128{3, 3, 3, 3}
	out, err := InterpolateFFT(x, 16)
	if err != nil {
		t.Fatalf("InterpolateFFT: %v", err)
	}
	for i, v := range out {
		if cmplx.Abs(v-3) > 1e-9 {
			t.Errorf("out[%d] = %v, want 3", i, v)
		}
	}
}

func TestInterpolateFFTPreservesSamples(t *testing.T) {
	// A band-limited sequence interpolated 4x must pass through the
	// original samples at stride 4.
	const n, m = 8, 32
	x := make([]complex128, n)
	for i := range x {
		angle := 2 * math.Pi * float64(i) / n
		x[i] = complex(math.Cos(angle), 0)
	}
	out, err := InterpolateFFT(x, m)
	if err != nil {
		t.Fatalf("InterpolateFFT: %v", err)
	}
	for i := 0; i < n; i++ {
		if cmplx.Abs(out[i*m/n]-x[i]) > 1e-9 {
			t.Errorf("sample %d not preserved: %v vs %v", i, out[i*m/n], x[i])
		}
	}
}

func TestInterpolateFFTValidation(t *testing.T) {
	if _, err := InterpolateFFT(nil, 8); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := InterpolateFFT(make([]complex128, 8), 4); err == nil {
		t.Error("accepted shrinking")
	}
	if _, err := InterpolateFFT(make([]complex128, 6), 12); err == nil {
		t.Error("accepted non-power-of-two")
	}
	same, err := InterpolateFFT([]complex128{1, 2}, 2)
	if err != nil || len(same) != 2 {
		t.Errorf("identity interpolation failed: %v %v", same, err)
	}
}

func TestInterpolateLinearComplex(t *testing.T) {
	out, err := InterpolateLinearComplex([]int{0, 4}, []complex128{0, 4}, 5)
	if err != nil {
		t.Fatalf("InterpolateLinearComplex: %v", err)
	}
	for i := 0; i < 5; i++ {
		if cmplx.Abs(out[i]-complex(float64(i), 0)) > 1e-12 {
			t.Errorf("out[%d] = %v, want %d", i, out[i], i)
		}
	}
	// Clamping outside the known range.
	out, err = InterpolateLinearComplex([]int{2, 4}, []complex128{5, 7}, 8)
	if err != nil {
		t.Fatalf("InterpolateLinearComplex: %v", err)
	}
	if out[0] != 5 || out[7] != 7 {
		t.Errorf("clamping failed: %v", out)
	}
	if _, err := InterpolateLinearComplex([]int{4, 2}, []complex128{1, 2}, 8); err == nil {
		t.Error("accepted non-increasing positions")
	}
	if _, err := InterpolateLinearComplex([]int{1}, []complex128{1, 2}, 8); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

func TestNearestComplex(t *testing.T) {
	out, err := NearestComplex([]int{0, 10}, []complex128{1, 9}, 11)
	if err != nil {
		t.Fatalf("NearestComplex: %v", err)
	}
	if out[3] != 1 || out[7] != 9 {
		t.Errorf("nearest mapping wrong: %v", out)
	}
	if out[5] != 1 { // tie goes to the lower position
		t.Errorf("tie-break wrong: %v", out[5])
	}
	if _, err := NearestComplex(nil, nil, 4); err == nil {
		t.Error("accepted empty positions")
	}
}

func TestStats(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Mean(x) != 3 {
		t.Errorf("Mean = %f", Mean(x))
	}
	if Median(x) != 3 {
		t.Errorf("Median = %f", Median(x))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even-length median wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 || RMS(nil) != 0 {
		t.Error("empty-input stats not 0")
	}
	if math.Abs(StdDev(x)-math.Sqrt(2)) > 1e-12 {
		t.Errorf("StdDev = %f, want sqrt(2)", StdDev(x))
	}
	if Variance([]float64{7}) != 0 {
		t.Error("single-sample variance not 0")
	}
	if math.Abs(RMS([]float64{3, 4})-math.Sqrt(12.5)) > 1e-12 {
		t.Error("RMS wrong")
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	p50, err := Percentile(x, 50)
	if err != nil || p50 != 25 {
		t.Errorf("P50 = %f, %v", p50, err)
	}
	p0, _ := Percentile(x, 0)
	p100, _ := Percentile(x, 100)
	if p0 != 10 || p100 != 40 {
		t.Errorf("P0/P100 = %f/%f", p0, p100)
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("accepted empty input")
	}
	if _, err := Percentile(x, 101); err == nil {
		t.Error("accepted out-of-range percentile")
	}
	single, err := Percentile([]float64{7}, 30)
	if err != nil || single != 7 {
		t.Errorf("single-sample percentile = %f, %v", single, err)
	}
}

// Property: dB conversions round-trip (a power ratio is the square of
// the amplitude ratio).
func TestDBRoundTripProperty(t *testing.T) {
	f := func(raw float64) bool {
		db := math.Mod(math.Abs(raw), 120) - 60
		amp := FromDBAmplitude(db)
		return math.Abs(DB(amp*amp)-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("non-positive ratios must map to -inf")
	}
}

func TestNormalize(t *testing.T) {
	zero := []float64{0, 0}
	y := []float64{3, 3, 3}
	NormalizeRMS(y, 1)
	if math.Abs(RMS(y)-1) > 1e-12 {
		t.Errorf("RMS after NormalizeRMS = %f", RMS(y))
	}
	NormalizeRMS(zero, 1) // must not divide by zero
	if zero[0] != 0 {
		t.Error("zero signal changed")
	}
}

func TestZScoreNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 500)
	for i := range x {
		x[i] = 5 + 3*rng.NormFloat64()
	}
	z := make([]float64, len(x))
	ZScoreNormalizeInto(z, x)
	if math.Abs(Mean(z)) > 1e-9 {
		t.Errorf("z-scored mean = %g", Mean(z))
	}
	if math.Abs(StdDev(z)-1) > 1e-9 {
		t.Errorf("z-scored stddev = %f", StdDev(z))
	}
	flat := []float64{9, 9, 9}
	ZScoreNormalizeInto(flat, []float64{2, 2, 2})
	for _, v := range flat {
		if v != 0 {
			t.Error("constant input must normalize to zeros")
		}
	}
}

func TestGoertzelMatchesFFT(t *testing.T) {
	const n = 256
	const rate = 44100
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*3000*float64(i)/rate) + 0.1*rng.NormFloat64()
	}
	spec := make([]complex128, n)
	if err := RealForward(spec, x); err != nil {
		t.Fatalf("RealForward: %v", err)
	}
	for _, bin := range []int{10, 17, 30} {
		g, err := Goertzel(x, float64(bin)*rate/n, rate)
		if err != nil {
			t.Fatalf("Goertzel: %v", err)
		}
		fftPower := (real(spec[bin])*real(spec[bin]) + imag(spec[bin])*imag(spec[bin])) / n
		if fftPower > 1e-9 && math.Abs(g-fftPower)/fftPower > 1e-6 {
			t.Errorf("bin %d: Goertzel %.6g vs FFT %.6g", bin, g, fftPower)
		}
	}
}

func TestGoertzelValidation(t *testing.T) {
	if _, err := Goertzel(nil, 1000, 44100); err == nil {
		t.Error("accepted empty signal")
	}
	if _, err := Goertzel([]float64{1}, -5, 44100); err == nil {
		t.Error("accepted negative frequency")
	}
	if _, err := Goertzel([]float64{1}, 30000, 44100); err == nil {
		t.Error("accepted frequency above Nyquist")
	}
	if _, err := Goertzel([]float64{1}, 100, 0); err == nil {
		t.Error("accepted zero sample rate")
	}
}
