package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestPoolBuffersAreZeroed(t *testing.T) {
	for round := 0; round < 3; round++ {
		c := GetComplex(64)
		f := GetFloat(64)
		for i := range c {
			if c[i] != 0 {
				t.Fatalf("round %d: complex buffer not zeroed at %d: %v", round, i, c[i])
			}
			if f[i] != 0 {
				t.Fatalf("round %d: float buffer not zeroed at %d: %v", round, i, f[i])
			}
			c[i] = complex(1, 1)
			f[i] = 1
		}
		PutComplex(c)
		PutFloat(f)
	}
}

// Lengths share power-of-two capacity classes: a dirty buffer returned at
// one length serves a different length in the same class, zeroed up to
// the requested length, and a pool hit allocates nothing.
func TestPoolCapacityClasses(t *testing.T) {
	for _, n := range []int{1, 3, 700, 1000, 1024, 17640} {
		f := GetFloat(n)
		if len(f) != n || cap(f) < n || cap(f)&(cap(f)-1) != 0 {
			t.Fatalf("GetFloat(%d): len %d cap %d, want len %d and a power-of-two cap", n, len(f), cap(f), n)
		}
		for i := range f[:cap(f)] {
			f[:cap(f)][i] = 1
		}
		PutFloat(f)
		g := GetFloat(n - n/4)
		for i, v := range g {
			if v != 0 {
				t.Fatalf("GetFloat(%d) after a dirty Put: sample %d = %v", len(g), i, v)
			}
		}
		PutFloat(g)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	GetFloat(1000) // warm the class
	if allocs := testing.AllocsPerRun(100, func() {
		f := GetFloat(1000)
		PutFloat(f)
		c := GetComplex(300)
		PutComplex(c)
	}); allocs != 0 {
		t.Errorf("pool round trip allocated %.1f objects per run, want 0", allocs)
	}
}

func TestPoolZeroLength(t *testing.T) {
	if buf := GetComplex(0); buf != nil {
		t.Errorf("GetComplex(0) = %v, want nil", buf)
	}
	if buf := GetFloat(-1); buf != nil {
		t.Errorf("GetFloat(-1) = %v, want nil", buf)
	}
	PutComplex(nil) // must not panic
	PutFloat(nil)
}

// TestPlanCacheConcurrentFFT hammers the shared plan cache and the
// scratch pools from many goroutines with many sizes at once. Run under
// -race this is the concurrency-safety proof for the batch engine's hot
// path: plans must come back identical and transforms must not corrupt
// each other's scratch.
func TestPlanCacheConcurrentFFT(t *testing.T) {
	sizes := []int{64, 128, 256, 512, 1024}
	const goroutines = 16
	const rounds = 40

	// Reference transforms, computed serially.
	refs := make(map[int][]complex128)
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec, err := FFTReal(x)
		if err != nil {
			t.Fatal(err)
		}
		refs[n] = spec
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(g+r)%len(sizes)]
				// Same deterministic input as the reference.
				rng := rand.New(rand.NewSource(int64(n)))
				buf := GetComplex(n)
				for i := range buf {
					buf[i] = complex(rng.NormFloat64(), 0)
				}
				p, err := PlanFor(n)
				if err != nil {
					errCh <- err
					return
				}
				if err := p.Forward(buf, buf); err != nil {
					errCh <- err
					return
				}
				want := refs[n]
				for i := range buf {
					if d := buf[i] - want[i]; math.Abs(real(d)) > 1e-9 || math.Abs(imag(d)) > 1e-9 {
						t.Errorf("size %d: concurrent FFT diverged at bin %d", n, i)
						break
					}
				}
				PutComplex(buf)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPlanForSharesInstances asserts the cache returns one plan per size,
// so concurrent users share read-only state instead of re-deriving it.
func TestPlanForSharesInstances(t *testing.T) {
	a, err := PlanFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor returned distinct plans for one size")
	}
	if _, err := PlanFor(100); err == nil {
		t.Error("PlanFor accepted a non-power-of-two size")
	}
}
