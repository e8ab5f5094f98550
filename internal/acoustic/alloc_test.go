package acoustic

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"wearlock/internal/audio"
	"wearlock/internal/dsp"
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

func TestJammerMixIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	j, err := NewJammer(60, 1378, 2067, 2756, 3445, 4134, 4823)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	dst := &audio.Buffer{Rate: 44100, Samples: make([]float64, 24000)}
	if err := j.MixInto(dst, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := j.MixInto(dst, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Jammer.MixInto allocated %.1f objects per run, want 0", allocs)
	}
}

// rotatedToneMix is the jammer as first written: one audio.Tone per tone,
// rotated by slice append, summed into a fresh buffer, then mixed into
// dst. MixInto must match it bit for bit.
func rotatedToneMix(t *testing.T, j *Jammer, dst *audio.Buffer, rng *rand.Rand) {
	t.Helper()
	out, err := audio.NewBuffer(dst.Rate, dst.Len())
	if err != nil {
		t.Fatal(err)
	}
	amp := audio.PressureFromSPL(j.SPL) * 1.4142135623730951
	for _, freq := range j.ToneHz {
		phase := rng.Float64() * 6.283185307179586
		tone, err := audio.Tone(freq, amp, dst.Len(), dst.Rate)
		if err != nil {
			t.Fatal(err)
		}
		shift := int(phase / 6.283185307179586 * float64(dst.Rate) / freq)
		if shift > 0 && shift < len(tone.Samples) {
			tone.Samples = append(tone.Samples[shift:], tone.Samples[:shift]...)
		}
		if err := out.MixAt(0, tone); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.MixAt(0, out); err != nil {
		t.Fatal(err)
	}
}

func TestJammerMixIntoMatchesRotatedTones(t *testing.T) {
	j, err := NewJammer(55, 1378, 2756, 4134, 19.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 4410, 24000} {
		base := make([]float64, n)
		noise := rand.New(rand.NewSource(int64(n)))
		for i := range base {
			base[i] = 0.01 * noise.NormFloat64()
		}
		got := &audio.Buffer{Rate: 44100, Samples: append([]float64(nil), base...)}
		want := &audio.Buffer{Rate: 44100, Samples: append([]float64(nil), base...)}
		gotRNG, wantRNG := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
		if err := j.MixInto(got, gotRNG); err != nil {
			t.Fatal(err)
		}
		rotatedToneMix(t, j, want, wantRNG)
		for i := range want.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("n=%d: sample %d = %v, rotated tones give %v", n, i, got.Samples[i], want.Samples[i])
			}
		}
		if gotRNG.Int63() != wantRNG.Int63() {
			t.Errorf("n=%d: MixInto drew a different number of random values", n)
		}
	}
}

func TestJammerMixIntoRejectsBadToneUntouched(t *testing.T) {
	j := &Jammer{ToneHz: []float64{1000, 30000}, SPL: 60}
	dst := &audio.Buffer{Rate: 44100, Samples: make([]float64, 100)}
	if err := j.MixInto(dst, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("MixInto accepted a tone above Nyquist")
	}
	for i, v := range dst.Samples {
		if v != 0 {
			t.Fatalf("failed MixInto wrote sample %d", i)
		}
	}
}

// TransmitPooled differs from Transmit only in where the recording's
// samples come from.
func TestTransmitPooledMatchesTransmit(t *testing.T) {
	tone, err := audio.Tone(3000, 1, 8820, 44100)
	if err != nil {
		t.Fatal(err)
	}
	jam, err := NewJammer(50, 2067, 4134)
	if err != nil {
		t.Fatal(err)
	}
	newLink := func() *Link {
		link, err := NewLink(44100, 0.3, PhoneSpeaker(), WatchMic(), Cafe(), rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		link.NLOS = NLOSConfig{Enabled: true, DirectLossDB: 10}
		link.Jammer = jam
		return link
	}
	fresh, pooled := newLink(), newLink()
	for round := 0; round < 3; round++ {
		want, err := fresh.Transmit(tone, 75)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pooled.TransmitPooled(tone, 75)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rate != want.Rate || len(got.Samples) != len(want.Samples) {
			t.Fatalf("round %d: pooled recording is %d samples at %d Hz, want %d at %d Hz",
				round, len(got.Samples), got.Rate, len(want.Samples), want.Rate)
		}
		for i := range want.Samples {
			if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
				t.Fatalf("round %d: sample %d differs", round, i)
			}
		}
		dsp.PutFloat(got.Samples)
	}
}

// TestBenchCasesRun guards the bench-dsp fixtures: every pair runs and
// the zero-alloc claims hold.
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
		if c.RequireZeroAllocNew && !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { c.New() }); allocs != 0 {
				t.Errorf("%s/new allocated %.1f objects per run, want 0", c.Name, allocs)
			}
		}
	}
}
