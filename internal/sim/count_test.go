package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// A counting source must be value-transparent: wrapping must not change
// the stream rand.Rand produces.
func TestCountingSourceTransparent(t *testing.T) {
	plain := rand.New(rand.NewSource(99))
	counted := rand.New(NewCountingSource(99))
	for i := 0; i < 1000; i++ {
		if a, b := plain.Uint64(), counted.Uint64(); a != b {
			t.Fatalf("draw %d: plain %d, counted %d", i, a, b)
		}
	}
}

// SkipTo(n) on a fresh source must land on the same stream position as n
// live draws through every consumption pattern rand.Rand offers —
// including NormFloat64, whose rejection sampling consumes a variable
// number of underlying values.
func TestCountingSourceSkipToResumesStream(t *testing.T) {
	consume := func(rng *rand.Rand, ops int) {
		for i := 0; i < ops; i++ {
			switch i % 5 {
			case 0:
				rng.Float64()
			case 1:
				rng.Intn(256)
			case 2:
				rng.NormFloat64()
			case 3:
				rng.Int63()
			default:
				rng.Uint64()
			}
		}
	}

	live := NewCountingSource(42)
	liveRng := rand.New(live)
	consume(liveRng, 137)

	restored := NewCountingSource(42)
	if err := restored.SkipTo(live.Draws()); err != nil {
		t.Fatal(err)
	}
	restoredRng := rand.New(restored)
	for i := 0; i < 200; i++ {
		if a, b := liveRng.Uint64(), restoredRng.Uint64(); a != b {
			t.Fatalf("post-skip draw %d diverged: %d vs %d", i, a, b)
		}
	}
	if live.Draws() != restored.Draws() {
		t.Fatalf("draw counts diverged: %d vs %d", live.Draws(), restored.Draws())
	}
}

// SkipTo must refuse to rewind.
func TestCountingSourceSkipToRejectsRewind(t *testing.T) {
	c := NewCountingSource(7)
	rand.New(c).Float64()
	if err := c.SkipTo(0); err == nil {
		t.Fatal("SkipTo rewound a source")
	}
}

// The virtual-time engines' bit-identity to core.RunBatch rests on one
// lemma: for any stream coordinate, the batch/Runner seeding
// rand.New(rand.NewSource(SeedFor(seed, i))) and the vtime device stream
// rand.New(NewCountingSource(SeedFor(seed, i))) are the same stream
// under arbitrary mixed consumption. Pin it per coordinate, not just for
// one literal seed.
func TestSeedForStreamsMatchAcrossEngines(t *testing.T) {
	const seed = 20250805
	for coord := int64(0); coord < 8; coord++ {
		batch := rand.New(rand.NewSource(SeedFor(seed, coord)))
		device := rand.New(NewCountingSource(SeedFor(seed, coord)))
		for i := 0; i < 200; i++ {
			var a, b float64
			switch i % 3 {
			case 0:
				a, b = batch.Float64(), device.Float64()
			case 1:
				a, b = float64(batch.Intn(1<<20)), float64(device.Intn(1<<20))
			default:
				a, b = batch.NormFloat64(), device.NormFloat64()
			}
			if a != b {
				t.Fatalf("coordinate %d draw %d: batch stream %v, device stream %v", coord, i, a, b)
			}
		}
	}
}

// refSource is the linear reference for every equivalence test below:
// the standard library's source, fast-forwarded by drawing and discarding.
type refSource struct {
	src rand.Source64
	n   uint64
}

func newRef(seed int64) *refSource {
	return &refSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (r *refSource) Uint64() uint64 { r.n++; return r.src.Uint64() }

func (r *refSource) Int63() int64 { r.n++; return r.src.Int63() }

func (r *refSource) skipTo(n uint64) {
	for r.n < n {
		r.Uint64()
	}
}

// edgeSeeds are the seeds where math/rand's seed reduction branches: zero
// (replaced by 89482311), negatives, the modulus 2^31−1 and its
// neighbours, and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	math.MaxInt32, -math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 + 1,
	-math.MaxInt32 - 1, 2 * math.MaxInt32, -2 * math.MaxInt32,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// sameDraws fails the test unless c continues exactly like ref for n draws.
func sameDraws(t *testing.T, what string, c *CountingSource, ref *refSource, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := c.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("%s: draw %d: got %#x, want %#x", what, ref.n-1, a, b)
		}
	}
	if c.Draws() != ref.n {
		t.Fatalf("%s: Draws() = %d, want %d", what, c.Draws(), ref.n)
	}
}

// The source's own seeding and stepping reproduce rand.NewSource for the
// edge seeds and for 2000 random ones, across draw 607 (the first output
// computed from outputs rather than seed words) and two more ring wraps.
func TestCountingSourceMatchesStdlibSeeds(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	gen := rand.New(rand.NewSource(20261017))
	for len(seeds) < len(edgeSeeds)+2000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		c, ref := NewCountingSource(seed), newRef(seed)
		for i := 0; i < 3*lfgLen; i++ {
			if i%2 == 0 {
				if a, b := c.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %#x, want %#x", seed, i, a, b)
				}
			} else if a, b := c.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %#x, want %#x", seed, i, a, b)
			}
		}
	}
}

// Random tapes of Uint64, Int63 and short SkipTo gaps (block stepping
// from every ring phase, including gaps of exactly one run or one ring)
// stay on the reference stream through many ring wraps.
func TestCountingSourceMixedOpsMatchReference(t *testing.T) {
	gaps := []uint64{0, 1, 2, lfgTap - 1, lfgTap, lfgTap + 1, lfgLag, lfgLen - 1, lfgLen, lfgLen + 1, 2*lfgLen + 5}
	for trial := int64(0); trial < 40; trial++ {
		seed := SeedFor(7, trial)
		c, ref := NewCountingSource(seed), newRef(seed)
		tape := rand.New(rand.NewSource(trial))
		for ref.n < 12*lfgLen {
			switch tape.Intn(4) {
			case 0:
				if a, b := c.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("trial %d at draw %d: Uint64 %#x, want %#x", trial, ref.n-1, a, b)
				}
			case 1:
				if a, b := c.Int63(), ref.Int63(); a != b {
					t.Fatalf("trial %d at draw %d: Int63 %#x, want %#x", trial, ref.n-1, a, b)
				}
			case 2:
				to := ref.n + gaps[tape.Intn(len(gaps))]
				if err := c.SkipTo(to); err != nil {
					t.Fatal(err)
				}
				ref.skipTo(to)
			default:
				to := ref.n + uint64(tape.Intn(3*lfgLen))
				if err := c.SkipTo(to); err != nil {
					t.Fatal(err)
				}
				ref.skipTo(to)
			}
			if c.Draws() != ref.n {
				t.Fatalf("trial %d: Draws() = %d, want %d", trial, c.Draws(), ref.n)
			}
		}
		sameDraws(t, fmt.Sprintf("trial %d tail", trial), c, ref, lfgLen+1)
	}
}

// The polynomial jump lands where block stepping does, from several ring
// phases and for gaps on both sides of every run and ring boundary.
func TestCountingSourceJumpMatchesStepping(t *testing.T) {
	var gaps []uint64
	for _, g := range []uint64{1, 2, lfgTap, lfgLag, lfgLen, 2 * lfgLen, lfgTap * lfgLen, 7 * lfgTap, 5 * lfgLen, 100003} {
		gaps = append(gaps, g-1, g, g+1)
	}
	for _, start := range []uint64{0, 1, lfgTap - 1, lfgTap, lfgLag, lfgLen - 1, lfgLen + 100} {
		for _, gap := range gaps {
			jumped, stepped := NewCountingSource(int64(start)), NewCountingSource(int64(start))
			jumped.step(start)
			stepped.step(start)
			jumped.jump(gap)
			stepped.step(gap)
			for i := 0; i < lfgLen+3; i++ {
				if a, b := jumped.Uint64(), stepped.Uint64(); a != b {
					t.Fatalf("start %d gap %d: draw %d after the jump: %#x, want %#x", start, gap, i, a, b)
				}
			}
		}
	}
}

// SkipTo switches from stepping to jumping at jumpMin; both sides of the
// crossover, and crossover-sized gaps that are whole numbers of runs or
// rings, land on the linear reference.
func TestCountingSourceSkipToAcrossCrossover(t *testing.T) {
	const start = 1000
	targets := []uint64{
		jumpMin - 1, jumpMin, jumpMin + 1,
		jumpMin / lfgTap * lfgTap, (jumpMin/lfgTap + 1) * lfgTap,
		jumpMin / lfgLen * lfgLen, (jumpMin/lfgLen + 1) * lfgLen,
		jumpMin / (lfgTap * lfgLen) * (lfgTap * lfgLen), 2*jumpMin + 12345,
	}
	for _, gap := range targets {
		c, ref := NewCountingSource(-5), newRef(-5)
		sameDraws(t, "warm-up", c, ref, start)
		if err := c.SkipTo(start + gap); err != nil {
			t.Fatal(err)
		}
		ref.skipTo(start + gap)
		sameDraws(t, fmt.Sprintf("gap %d", gap), c, ref, lfgLen+1)
	}
}

// Far jumps compose: one SkipTo to 10^11 + k agrees with 10^11 followed
// by k stepped draws, and with two half-way jumps. A linear SkipTo would
// need minutes here.
func TestCountingSourceFarJumpsCompose(t *testing.T) {
	const far = uint64(1e11)
	for _, k := range []uint64{0, 1, lfgTap, lfgLen, 5000} {
		direct := NewCountingSource(11)
		if err := direct.SkipTo(far + k); err != nil {
			t.Fatal(err)
		}
		viaStep := NewCountingSource(11)
		if err := viaStep.SkipTo(far); err != nil {
			t.Fatal(err)
		}
		if err := viaStep.SkipTo(far + k); err != nil {
			t.Fatal(err)
		}
		halves := NewCountingSource(11)
		if err := halves.SkipTo(far / 2); err != nil {
			t.Fatal(err)
		}
		if err := halves.SkipTo(far + k); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lfgLen+1; i++ {
			a, b, h := direct.Uint64(), viaStep.Uint64(), halves.Uint64()
			if a != b || a != h {
				t.Fatalf("k %d draw %d: direct %#x, stepped %#x, halves %#x", k, i, a, b, h)
			}
		}
	}
}

// Seed resets a used source in place: count to zero, stream to the new
// seed's, whatever position and ring phase it was at.
func TestCountingSourceSeedResetsInPlace(t *testing.T) {
	c := NewCountingSource(3)
	for _, seed := range []int64{3, 4, 0, math.MinInt64} {
		rand.New(c).NormFloat64()
		if err := c.SkipTo(c.Draws() + 4*jumpMin + 77); err != nil {
			t.Fatal(err)
		}
		c.Seed(seed)
		if c.Draws() != 0 {
			t.Fatalf("Seed(%d) left Draws() = %d", seed, c.Draws())
		}
		sameDraws(t, fmt.Sprintf("reseeded %d", seed), c, newRef(seed), 2*lfgLen)
	}
}

// Seeding and both SkipTo paths allocate nothing: scratch for the jump
// lives on the stack.
func TestCountingSourceZeroAllocs(t *testing.T) {
	c := NewCountingSource(1)
	for name, f := range map[string]func(){
		"Seed":        func() { c.Seed(9) },
		"SkipTo/17k":  func() { c.Seed(9); _ = c.SkipTo(17_000) },
		"SkipTo/1e11": func() { c.Seed(9); _ = c.SkipTo(1e11) },
	} {
		if got := testing.AllocsPerRun(5, f); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, got)
		}
	}
}

// FuzzCountingSource runs a random seed and op tape against the standard
// library's source. Each tape byte is one op: its top two bits pick
// Uint64, Int63, a stepped SkipTo or a direct polynomial jump, and its
// low six bits size the gap.
func FuzzCountingSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, []byte{0x00, 0x40, 0x95, 0xff, 0x00, 0xc1, 0x7f, 0x3f})
	}
	f.Add(int64(42), []byte{0xbf, 0xbf, 0xbf, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, tape []byte) {
		if len(tape) > 256 {
			tape = tape[:256]
		}
		c, ref := NewCountingSource(seed), newRef(seed)
		for _, op := range tape {
			gap := uint64(op&0x3f) * 37
			switch op >> 6 {
			case 0:
				if a, b := c.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("draw %d: Uint64 %#x, want %#x", ref.n-1, a, b)
				}
			case 1:
				if a, b := c.Int63(), ref.Int63(); a != b {
					t.Fatalf("draw %d: Int63 %#x, want %#x", ref.n-1, a, b)
				}
			case 2:
				if err := c.SkipTo(ref.n + gap); err != nil {
					t.Fatal(err)
				}
				ref.skipTo(ref.n + gap)
			default:
				c.jump(gap + 1)
				c.n += gap + 1
				ref.skipTo(ref.n + gap + 1)
			}
		}
		sameDraws(t, "tail", c, ref, lfgLen+1)
	})
}

// BenchmarkNewCountingSource measures seeding one device stream, which
// every daemon boot pays once per device.
func BenchmarkNewCountingSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = NewCountingSource(int64(i))
	}
}

var benchSink *CountingSource

// BenchmarkSkipTo measures restoring a device stream: seeding a source
// and fast-forwarding it to a persisted position. 17k is a device after
// the durable-light benchmark's pre-crash run, 4M is above the jump
// crossover, 1e11 is a device that served for years.
func BenchmarkSkipTo(b *testing.B) {
	for _, bc := range []struct {
		name  string
		draws uint64
	}{{"17k", 17_000}, {"4M", 4 << 20}, {"1e11", 1e11}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			c := NewCountingSource(42)
			for i := 0; i < b.N; i++ {
				c.Seed(42)
				if err := c.SkipTo(bc.draws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
