package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// toneRMS measures the RMS of a pure tone after filtering.
func toneRMS(t *testing.T, f *FIRFilter, freqHz, sampleRate float64) float64 {
	t.Helper()
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freqHz * float64(i) / sampleRate)
	}
	y := f.Apply(x)
	return RMS(y[len(y)/4 : 3*len(y)/4]) // steady-state section
}

func TestLowPassFIRResponse(t *testing.T) {
	const rate = 44100
	lp, err := LowPassFIR(3000, rate, 101)
	if err != nil {
		t.Fatalf("LowPassFIR: %v", err)
	}
	pass := toneRMS(t, lp, 1000, rate)
	stop := toneRMS(t, lp, 10000, rate)
	if pass < 0.6 {
		t.Errorf("passband (1 kHz) RMS %.3f, want ~0.707", pass)
	}
	if stop > 0.05 {
		t.Errorf("stopband (10 kHz) RMS %.3f, want near 0", stop)
	}
}

func TestBandPassFIRResponse(t *testing.T) {
	const rate = 44100
	bp, err := BandPassFIR(2000, 6000, rate, 101)
	if err != nil {
		t.Fatalf("BandPassFIR: %v", err)
	}
	inBand := toneRMS(t, bp, 4000, rate)
	below := toneRMS(t, bp, 500, rate)
	above := toneRMS(t, bp, 12000, rate)
	if inBand < 0.6 {
		t.Errorf("in-band (4 kHz) RMS %.3f, want ~0.707", inBand)
	}
	if below > 0.05 || above > 0.05 {
		t.Errorf("out-of-band RMS %.3f / %.3f, want near 0", below, above)
	}
}

func TestFIRValidation(t *testing.T) {
	if _, err := LowPassFIR(0, 44100, 31); err == nil {
		t.Error("accepted zero cutoff")
	}
	if _, err := LowPassFIR(30000, 44100, 31); err == nil {
		t.Error("accepted cutoff above Nyquist")
	}
	if _, err := LowPassFIR(1000, 44100, 1); err == nil {
		t.Error("accepted too few taps")
	}
	if _, err := BandPassFIR(5000, 2000, 44100, 31); err == nil {
		t.Error("accepted inverted band")
	}
	if _, err := NewFIRFilter(nil); err == nil {
		t.Error("accepted empty taps")
	}
}

func TestNewFIRFilterCopiesTaps(t *testing.T) {
	taps := []float64{1, 2, 3}
	f, err := NewFIRFilter(taps)
	if err != nil {
		t.Fatalf("NewFIRFilter: %v", err)
	}
	taps[0] = 99
	got := f.Taps()
	if got[0] != 1 {
		t.Error("filter shares caller's tap slice")
	}
	if f.Len() != 3 {
		t.Errorf("Len() = %d, want 3", f.Len())
	}
}

// applyGuarded is the single range-tested loop ApplyInto's edge/interior
// split must reproduce bit for bit.
func applyGuarded(taps, x []float64) []float64 {
	out := make([]float64, len(x))
	half := len(taps) / 2
	for i := range out {
		var sum float64
		for j, tap := range taps {
			if k := i + half - j; k >= 0 && k < len(x) {
				sum += tap * x[k]
			}
		}
		out[i] = sum
	}
	return out
}

func TestApplyIntoBitIdenticalToGuardedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 3, 8, 31, 129} {
		taps := make([]float64, m)
		for i := range taps {
			taps[i] = rng.NormFloat64()
		}
		f, err := NewFIRFilter(taps)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, m / 2, m - 1, m, m + 1, 2 * m, 1000} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := applyGuarded(taps, x)
			got := make([]float64, n)
			if err := f.ApplyInto(got, x); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("taps %d, n %d: sample %d = %v, want %v", m, n, i, got[i], want[i])
				}
			}
		}
	}
	f, _ := NewFIRFilter([]float64{1, 2, 3})
	if err := f.ApplyInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("ApplyInto accepted a short dst")
	}
}

func TestApplyIntoZeroAllocs(t *testing.T) {
	bp, err := BandPassFIR(300, 3400, 44100, 129)
	if err != nil {
		t.Fatal(err)
	}
	x := benchCaseSignal(4096)
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(20, func() { _ = bp.ApplyInto(dst, x) }); allocs != 0 {
		t.Errorf("ApplyInto allocated %.1f objects per run, want 0", allocs)
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := Convolve(x, []float64{1})
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("convolution with delta changed sample %d", i)
		}
	}
	if Convolve(nil, x) != nil {
		t.Error("convolution with empty input should be nil")
	}
}

// Properties: convolution is commutative, and output length is n+m-1.
func TestConvolveProperties(t *testing.T) {
	f := func(seed int64, an, bn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(an)%30 + 1
		m := int(bn)%30 + 1
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ab := Convolve(a, b)
		ba := Convolve(b, a)
		if len(ab) != n+m-1 || len(ba) != n+m-1 {
			return false
		}
		for i := range ab {
			if math.Abs(ab[i]-ba[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The frequency-domain fast path of Convolve must agree with the direct
// path on large inputs.
func TestConvolveFFTPathMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 300) // 500*300 > 1<<16 -> FFT path
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fast := Convolve(a, b)
	// Direct reference.
	direct := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			direct[i+j] += av * bv
		}
	}
	for i := range direct {
		if math.Abs(fast[i]-direct[i]) > 1e-6 {
			t.Fatalf("FFT convolution differs at %d: %f vs %f", i, fast[i], direct[i])
		}
	}
}

// The four-output interior keeps every output's own accumulator and tap
// order, so it must match the one-output reference bit for bit: odd and
// even tap counts, lengths that leave 0-3 outputs after the last block,
// and inputs shorter than the filter (no interior at all).
func TestFIRBlockedInteriorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, taps := range []int{1, 2, 3, 4, 7, 8, 31, 64, 129} {
		coeffs := make([]float64, taps)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		f, err := NewFIRFilter(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, taps - 1, taps, taps + 1, taps + 2, taps + 3, 97, 1001, 4410} {
			if n < 0 {
				continue
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := make([]float64, n)
			want := make([]float64, n)
			if err := f.ApplyInto(got, x); err != nil {
				t.Fatal(err)
			}
			f.applyReference(want, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("taps %d n %d: output %d = %v, reference %v", taps, n, i, got[i], want[i])
				}
			}
		}
	}
}
