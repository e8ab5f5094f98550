package audio

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// humDirect is the hum as every sample once computed it: the harmonic sum
// evaluated inline, then the broadband term.
func humDirect(buf *Buffer, rng *rand.Rand) {
	base := 120.0
	harmonics := [...]float64{1, 0.5, 0.3, 0.15, 0.08}
	for i := range buf.Samples {
		t := float64(i) / float64(buf.Rate)
		var v float64
		for h, amp := range harmonics {
			v += amp * math.Sin(2*math.Pi*base*float64(h+1)*t)
		}
		buf.Samples[i] = v + 0.1*rng.NormFloat64()
	}
}

// The cached harmonic table reproduces the direct sum bit for bit, at
// both device rates and over lengths that grow, shrink and grow the
// table again.
func TestHumTableBitIdentical(t *testing.T) {
	for _, rate := range []int{44100, 48000} {
		for _, n := range []int{1, 255, 22050, 1000, 2*rate + 7} {
			got := &Buffer{Rate: rate, Samples: make([]float64, n)}
			want := &Buffer{Rate: rate, Samples: make([]float64, n)}
			humNoise(got, rand.New(rand.NewSource(int64(n))))
			humDirect(want, rand.New(rand.NewSource(int64(n))))
			for i := range want.Samples {
				if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
					t.Fatalf("rate %d n %d: sample %d = %v, direct %v", rate, n, i, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// Goroutines growing one rate's table at once each get a correct prefix;
// run under -race this is the proof that publication needs no lock.
func TestHumTableConcurrentGrowth(t *testing.T) {
	const rate = 16000 // a rate no other test touches, so the table starts empty
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 500 + 997*g
			table := humTable(rate, n)
			if len(table) != n {
				errs <- "wrong length"
				return
			}
			for i, v := range table {
				if math.Float64bits(v) != math.Float64bits(humSum(i, rate)) {
					errs <- "wrong value"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBenchCasesRun guards the bench-dsp fixture: the pair runs and the
// table path allocates nothing once warm.
func TestBenchCasesRun(t *testing.T) {
	cases, err := BenchCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := c.Old(); err != nil {
			t.Errorf("%s/old: %v", c.Name, err)
		}
		if err := c.New(); err != nil {
			t.Errorf("%s/new: %v", c.Name, err)
		}
		if c.RequireZeroAllocNew {
			if allocs := testing.AllocsPerRun(20, func() { c.New() }); allocs != 0 {
				t.Errorf("%s/new allocated %.1f objects per run, want 0", c.Name, allocs)
			}
		}
	}
}
