package acoustic

import (
	"math/rand"
	"testing"
	"unsafe"

	"wearlock/internal/audio"
)

// The channel simulator's ownership contract: intermediate buffers are
// pooled scratch, so the Into forms allocate nothing in steady state,
// while every buffer handed back to a caller is freshly allocated and
// never shared with another result.

func TestRenderIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	rng := rand.New(rand.NewSource(1))
	env := Cafe() // babble, impulsive and hum: every pooled noise path
	dst := &audio.Buffer{Rate: 44100, Samples: make([]float64, 17640)}
	if err := env.RenderInto(dst, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := env.RenderInto(dst, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("RenderInto allocated %.1f objects per run, want 0", allocs)
	}
}

func TestRenderPairIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	for _, colocated := range []bool{true, false} {
		rng := rand.New(rand.NewSource(2))
		env := Classroom()
		a := &audio.Buffer{Rate: 44100, Samples: make([]float64, 17640)}
		b := &audio.Buffer{Rate: 44100, Samples: make([]float64, 17640)}
		if err := env.RenderPairInto(a, b, colocated, rng); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := env.RenderPairInto(a, b, colocated, rng); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("RenderPairInto(colocated=%v) allocated %.1f objects per run, want 0", colocated, allocs)
		}
	}
}

func TestRenderPairIntoRejectsMismatchedBuffers(t *testing.T) {
	a := &audio.Buffer{Rate: 44100, Samples: make([]float64, 10)}
	b := &audio.Buffer{Rate: 44100, Samples: make([]float64, 11)}
	if err := Office().RenderPairInto(a, b, true, rand.New(rand.NewSource(1))); err == nil {
		t.Error("RenderPairInto accepted buffers of different lengths")
	}
}

// sharesBacking reports whether two slices' backing arrays overlap.
func sharesBacking(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a, b = a[:cap(a)], b[:cap(b)]
	aLo, bLo := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	aHi, bHi := aLo+uintptr(len(a))*8, bLo+uintptr(len(b))*8
	return aLo < bHi && bLo < aHi
}

func TestReturnedBuffersAreCallerOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	link, err := NewLink(44100, 0.3, PhoneSpeaker(), WatchMic(), Cafe(), rng)
	if err != nil {
		t.Fatal(err)
	}
	link.NLOS = NLOSConfig{Enabled: true, DirectLossDB: 10}
	tone, err := audio.Tone(3000, 1, 8820, 44100)
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := link.Transmit(tone, 75)
	if err != nil {
		t.Fatal(err)
	}
	kept := rec1.Clone()
	rec2, err := link.Transmit(tone, 75)
	if err != nil {
		t.Fatal(err)
	}
	if sharesBacking(rec1.Samples, rec2.Samples) || sharesBacking(rec1.Samples, tone.Samples) {
		t.Error("Transmit recordings share a backing array")
	}
	for i := range kept.Samples {
		if rec1.Samples[i] != kept.Samples[i] {
			t.Fatalf("second Transmit overwrote the first recording at sample %d", i)
		}
	}

	for _, colocated := range []bool{true, false} {
		a1, b1, err := Cafe().RenderPair(4410, 44100, colocated, rng)
		if err != nil {
			t.Fatal(err)
		}
		a2, b2, err := Cafe().RenderPair(4410, 44100, colocated, rng)
		if err != nil {
			t.Fatal(err)
		}
		bufs := [][]float64{a1.Samples, b1.Samples, a2.Samples, b2.Samples}
		for i := range bufs {
			for j := i + 1; j < len(bufs); j++ {
				if sharesBacking(bufs[i], bufs[j]) {
					t.Errorf("colocated=%v: RenderPair results %d and %d share a backing array", colocated, i, j)
				}
			}
		}
	}
}
