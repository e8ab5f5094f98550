package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// The Go 1 math/rand source (rand.NewSource) is the additive lagged
// Fibonacci generator y_k = y_{k-607} + y_{k-273} mod 2^64, so its whole
// state is its last 607 outputs. CountingSource keeps those outputs in a
// ring of its own and steps the recurrence directly, which lets it seed
// and fast-forward without going through the standard source.
const (
	lfgLen = 607             // long lag: the state is the last lfgLen outputs
	lfgTap = 273             // short lag
	lfgLag = lfgLen - lfgTap // ring distance from the oldest slot to its tap

	// jumpMin is the gap from which SkipTo computes x^gap mod the
	// characteristic polynomial instead of stepping the recurrence in
	// blocks. Measured on an AMD EPYC x86-64 host: block stepping costs
	// about 0.22 ns per draw, a jump 0.16 ms at 64k draws, 0.40 ms at 2M
	// and 1.2 ms at 10^11, so the two meet near 2M.
	jumpMin = 2 << 20

	// math/rand seeds with the Lehmer generator x ← 48271·x mod (2^31−1).
	lehmerMod = 1<<31 - 1
	lehmerA   = 48271
	lehmerA3  = lehmerA * lehmerA % lehmerMod * lehmerA % lehmerMod
)

// cooked is the constant math/rand XORs into its seed words, laid out in
// ring order. It is derived rather than copied: the first 607 outputs of
// rand.NewSource(1) determine the 607 state words that produced them (the
// recurrence inverts as y_{k-607} = y_k - y_{k-273}), and XORing those
// with seed 1's raw words leaves the table.
var cooked = deriveCooked()

func deriveCooked() (tab [lfgLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var out [lfgLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	// tab[r] = y_{r-607}: first the slots whose tap is an output, then
	// the ones whose tap is a slot recovered in the first pass.
	for k := lfgTap; k < lfgLen; k++ {
		tab[k] = out[k] - out[k-lfgTap]
	}
	for k := 0; k < lfgTap; k++ {
		tab[k] = out[k] - tab[k+lfgLag]
	}
	var raw [lfgLen]uint64
	seedWords(&raw, 1)
	for r := range tab {
		tab[r] ^= raw[r]
	}
	return tab
}

// lehmerMul returns x·b mod (2^31−1) for x, b in [1, 2^31−2] by Mersenne
// reduction; with b = 48271 it is one step of math/rand's seedrand
// (which uses Schrage's division instead).
func lehmerMul(x, b uint64) uint64 {
	x *= b
	x = x&lehmerMod + x>>31
	if x >= lehmerMod {
		x -= lehmerMod
	}
	return x
}

// seedWords writes math/rand's raw (uncooked) seed words for seed into
// ring in ring order: state word i lands in slot (333 − i) mod 607, the
// slot that holds it as the output 607 draws before the first. Word i is
// built from Lehmer outputs 21+3i, 22+3i and 23+3i, so the three are
// produced by three independent chains with multiplier 48271³.
func seedWords(ring *[lfgLen]uint64, seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := 0; i < 20; i++ {
		x = lehmerMul(x, lehmerA)
	}
	x1 := lehmerMul(x, lehmerA)
	x2 := lehmerMul(x1, lehmerA)
	x3 := lehmerMul(x2, lehmerA)
	r := lfgLag - 1
	for i := 0; i < lfgLen; i++ {
		ring[r] = x1<<40 ^ x2<<20 ^ x3
		x1 = lehmerMul(x1, lehmerA3)
		x2 = lehmerMul(x2, lehmerA3)
		x3 = lehmerMul(x3, lehmerA3)
		if r--; r < 0 {
			r = lfgLen - 1
		}
	}
}

// CountingSource is the math/rand Go 1 source with a draw counter, making
// a random stream's position part of a device's durable state: the
// service layer persists Draws() alongside the OTP counters, and a
// restarted daemon calls SkipTo to fast-forward a freshly seeded source to
// the persisted position, so the post-restart stream continues exactly
// where the crashed process left off.
//
// The stream is bit-identical to rand.NewSource(seed): the source holds
// the generator's last 607 outputs in a ring and steps the same
// recurrence. Seeding costs about a microsecond and no allocation. SkipTo
// costs O(gap) below a crossover of 2M draws (runs of up to
// 273 draws become one slice add each) and O(607²·log gap) above it (a
// polynomial jump), so restoring a device costs about the same however
// long it has been in service.
//
// The count is exact because every consuming method of *rand.Rand funnels
// into exactly one Int63 or Uint64 call per underlying state step (Int63
// is a masked Uint64), so replaying n Uint64 draws reproduces any mix of
// Float64/Intn/NormFloat64 consumption.
//
// CountingSource is not safe for concurrent use, matching *rand.Rand; the
// service serializes all access per device.
type CountingSource struct {
	// ring[(pos+t) % 607] is output n−607+t for t in [0, 607); outputs
	// before the first draw are the seeded state words.
	ring [lfgLen]uint64
	pos  int
	n    uint64
}

// NewCountingSource returns a counting source with the stream of
// rand.NewSource(seed), positioned at draw zero.
func NewCountingSource(seed int64) *CountingSource {
	c := new(CountingSource)
	c.Seed(seed)
	return c
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	return int64(c.Uint64() & (1<<63 - 1))
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	i := c.pos
	j := i + lfgLag
	if j >= lfgLen {
		j -= lfgLen
	}
	x := c.ring[i] + c.ring[j]
	c.ring[i] = x
	if i++; i == lfgLen {
		i = 0
	}
	c.pos = i
	c.n++
	return x
}

// Seed implements rand.Source, resetting the draw count with the state.
func (c *CountingSource) Seed(seed int64) {
	seedWords(&c.ring, seed)
	for r := range c.ring {
		c.ring[r] ^= cooked[r]
	}
	c.pos, c.n = 0, 0
}

// Draws reports how many values have been drawn since seeding.
func (c *CountingSource) Draws() uint64 { return c.n }

// SkipTo advances the source until Draws() == n, landing on the state n
// live draws would leave. It refuses to move backward: a persisted
// position behind the live one means the durable state belongs to a
// different stream.
func (c *CountingSource) SkipTo(n uint64) error {
	if n < c.n {
		return fmt.Errorf("sim: cannot rewind counting source from draw %d to %d", c.n, n)
	}
	if gap := n - c.n; gap >= jumpMin {
		c.jump(gap)
	} else {
		c.step(gap)
	}
	c.n = n
	return nil
}

// step advances the ring gap draws without touching the count. A run of
// at most 273 draws reads only values older than the run, so each run
// between ring wraps is one slice add.
func (c *CountingSource) step(gap uint64) {
	i := c.pos
	for gap > 0 {
		j := i + lfgLag
		if j >= lfgLen {
			j -= lfgLen
		}
		l := min(lfgTap, lfgLen-i, lfgLen-j)
		if uint64(l) > gap {
			l = int(gap)
		}
		dst, src := c.ring[i:i+l], c.ring[j:j+l]
		src = src[:len(dst)]
		// Unrolled by four: 0.22 ns per draw against 0.32 for the plain loop.
		t := 0
		for ; t+4 <= len(dst); t += 4 {
			d, s := dst[t:t+4:t+4], src[t:t+4:t+4]
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
		}
		for ; t < len(dst); t++ {
			dst[t] += src[t]
		}
		gap -= uint64(l)
		if i += l; i == lfgLen {
			i = 0
		}
	}
	c.pos = i
}

// jump advances the ring gap draws in O(607²·log gap) without touching
// the count. With x^gap ≡ Σ a_i x^i mod (x^607 − x^334 − 1), the
// characteristic polynomial of the recurrence, every output satisfies
// y_{k+gap} = Σ a_i y_{k+i}; the new window is those sums over the old
// window extended 606 draws forward. All scratch lives on the stack.
func (c *CountingSource) jump(gap uint64) {
	var a [lfgLen]uint64
	polyPowX(&a, gap)

	var w [2*lfgLen - 1]uint64
	copy(w[:], c.ring[c.pos:])
	copy(w[lfgLen-c.pos:], c.ring[:c.pos])
	for k := lfgLen; k < len(w); k++ {
		w[k] = w[k-lfgLen] + w[k-lfgTap]
	}
	for t := range c.ring {
		win := w[t : t+lfgLen]
		var s uint64
		for i, ai := range a {
			s += ai * win[i]
		}
		c.ring[t] = s
	}
	c.pos = 0
}

// polyPowX sets a to x^e mod (x^607 − x^334 − 1) over Z/2^64 by
// square-and-multiply-by-x, starting from the largest monomial the
// leading bits of e name without reduction.
func polyPowX(a *[lfgLen]uint64, e uint64) {
	k := bits.Len64(e)
	var m uint64
	for k > 0 {
		next := m<<1 | e>>(k-1)&1
		if next >= lfgLen {
			break
		}
		m = next
		k--
	}
	*a = [lfgLen]uint64{}
	a[m] = 1
	var sq [2*lfgLen - 1]uint64
	for k--; k >= 0; k-- {
		polySquare(a, &sq)
		if e>>k&1 == 1 {
			polyMulX(a)
		}
	}
}

// polySquare sets a to a² mod (x^607 − x^334 − 1), using sq as scratch.
func polySquare(a *[lfgLen]uint64, sq *[2*lfgLen - 1]uint64) {
	*sq = [2*lfgLen - 1]uint64{}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		sq[2*i] += ai * ai
		ai2 := 2 * ai
		rest := a[i+1:]
		row := sq[2*i+1:][:len(rest)]
		for j, aj := range rest {
			row[j] += ai2 * aj
		}
	}
	// x^d = x^(d−273) + x^(d−607) for d ≥ 607; top down, so a term folded
	// onto a still-high degree is folded again on its turn.
	for d := len(sq) - 1; d >= lfgLen; d-- {
		v := sq[d]
		sq[d-lfgTap] += v
		sq[d-lfgLen] += v
	}
	copy(a[:], sq[:lfgLen])
}

// polyMulX sets a to a·x mod (x^607 − x^334 − 1).
func polyMulX(a *[lfgLen]uint64) {
	top := a[lfgLen-1]
	copy(a[1:], a[:lfgLen-1])
	a[0] = top
	a[lfgLag] += top
}
