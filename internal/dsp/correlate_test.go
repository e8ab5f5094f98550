package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCrossCorrelateFindsKnownLag(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	template := make([]float64, 64)
	for i := range template {
		template[i] = rng.NormFloat64()
	}
	signal := make([]float64, 1000)
	const lag = 373
	copy(signal[lag:], template)
	scores, err := CrossCorrelate(signal, template)
	if err != nil {
		t.Fatalf("CrossCorrelate: %v", err)
	}
	got, _, err := PeakLag(scores)
	if err != nil {
		t.Fatalf("PeakLag: %v", err)
	}
	if got != lag {
		t.Errorf("peak at %d, want %d", got, lag)
	}
}

// Property: the FFT fast path must agree with the direct method.
func TestCrossCorrelateFFTMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		signal := make([]float64, 700)
		for i := range signal {
			signal[i] = rng.NormFloat64()
		}
		template := make([]float64, 128) // large enough to take the FFT path
		for i := range template {
			template[i] = rng.NormFloat64()
		}
		fast, err := crossCorrelateFFT(signal, template)
		if err != nil {
			return false
		}
		direct := crossCorrelateDirect(signal, template)
		for i := range direct {
			if math.Abs(fast[i]-direct[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelateValidation(t *testing.T) {
	if _, err := CrossCorrelate([]float64{1, 2}, nil); err == nil {
		t.Error("accepted empty template")
	}
	if _, err := CrossCorrelate([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("accepted signal shorter than template")
	}
}

func TestNormalizedCrossCorrelateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	signal := make([]float64, 2000)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	template := make([]float64, 100)
	for i := range template {
		template[i] = rng.NormFloat64()
	}
	scores, err := NormalizedCrossCorrelate(signal, template)
	if err != nil {
		t.Fatalf("NormalizedCrossCorrelate: %v", err)
	}
	for i, s := range scores {
		if s < -1.0001 || s > 1.0001 {
			t.Fatalf("score[%d] = %f outside [-1, 1]", i, s)
		}
	}
}

func TestNormalizedCrossCorrelatePerfectMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	template := make([]float64, 64)
	for i := range template {
		template[i] = rng.NormFloat64()
	}
	signal := make([]float64, 300)
	for i := range signal {
		signal[i] = 1e-9 * rng.NormFloat64()
	}
	const lag = 100
	copy(signal[lag:], template)
	scores, err := NormalizedCrossCorrelate(signal, template)
	if err != nil {
		t.Fatalf("NormalizedCrossCorrelate: %v", err)
	}
	got, peak, err := PeakLag(scores)
	if err != nil {
		t.Fatalf("PeakLag: %v", err)
	}
	if got != lag {
		t.Errorf("peak at %d, want %d", got, lag)
	}
	if peak < 0.999 {
		t.Errorf("perfect-match score %.6f, want ~1", peak)
	}
	if _, err := NormalizedCrossCorrelate(signal, make([]float64, 8)); err == nil {
		t.Error("accepted zero-energy template")
	}
}

func TestPeakLagEmpty(t *testing.T) {
	if _, _, err := PeakLag(nil); err == nil {
		t.Error("PeakLag accepted empty input")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	r, err := PearsonCorrelation(a, b)
	if err != nil {
		t.Fatalf("PearsonCorrelation: %v", err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfectly correlated r = %f, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = PearsonCorrelation(a, neg)
	if err != nil {
		t.Fatalf("PearsonCorrelation: %v", err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("anti-correlated r = %f, want -1", r)
	}
	// Constant input has no variance: correlation defined as 0 here.
	r, err = PearsonCorrelation(a, []float64{3, 3, 3, 3, 3})
	if err != nil {
		t.Fatalf("PearsonCorrelation: %v", err)
	}
	if r != 0 {
		t.Errorf("constant input r = %f, want 0", r)
	}
	if _, err := PearsonCorrelation(a, []float64{1}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := PearsonCorrelation(nil, nil); err == nil {
		t.Error("accepted empty input")
	}
}

// correlatorFixture is a preamble-sized template and a recording-sized
// signal, large enough for the Correlator's FFT path.
func correlatorFixture() (template, signal []float64) {
	rng := rand.New(rand.NewSource(11))
	template = make([]float64, 256)
	for i := range template {
		template[i] = rng.NormFloat64()
	}
	signal = make([]float64, 3000)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	return template, signal
}

func TestCorrelatorZeroAllocsWithScratch(t *testing.T) {
	template, signal := correlatorFixture()
	c, err := NewCorrelator(template)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, c.OutLen(len(signal)))
	var s CorrScratch
	if err := c.Normalized(dst, signal, &s); err != nil { // warm scratch and spectrum
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.CrossCorrelate(dst, signal, &s); err != nil {
			t.Fatal(err)
		}
		if err := c.Normalized(dst, signal, &s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Correlator with a warm CorrScratch allocated %.1f objects per run, want 0", allocs)
	}
}

// One Correlator shared by many goroutines, each with its own scratch and
// several signal lengths (so the spectrum cache fills concurrently), must
// match the allocating NormalizedCrossCorrelate bit for bit. Run under
// -race this is the concurrency-safety proof.
func TestCorrelatorSharedAcrossGoroutines(t *testing.T) {
	template, signal := correlatorFixture()
	c, err := NewCorrelator(template)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{600, 1500, 3000}
	want := make(map[int][]float64)
	for _, n := range lengths {
		if want[n], err = NormalizedCrossCorrelate(signal[:n], template); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s CorrScratch
			for r := 0; r < 6; r++ {
				n := lengths[(g+r)%len(lengths)]
				dst := make([]float64, c.OutLen(n))
				if err := c.Normalized(dst, signal[:n], &s); err != nil {
					t.Error(err)
					return
				}
				for i := range dst {
					if math.Float64bits(dst[i]) != math.Float64bits(want[n][i]) {
						t.Errorf("length %d: lag %d = %v, want %v", n, i, dst[i], want[n][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
