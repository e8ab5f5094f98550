package fault

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"wearlock/internal/audio"
	"wearlock/internal/sim"
)

// faultSalt separates the fault-decision stream from every other
// SeedFor-derived stream (device rngs, batch jobs) built from the same
// base seed.
const faultSalt int64 = 0x66617573 // "faus"

// SessionFaults holds the armed faults of one session plus a private
// random stream for per-operation decisions. It is created once per
// session by ForSession and handed to the layers via their injection
// interfaces; because sessions execute their protocol serially, the
// per-op draw order is a pure function of the session's code path, which
// keeps chaos runs bit-identical between serial and parallel execution.
// The mutex exists for the rare concurrent consumers (an abort racing
// in-flight traffic), mirroring wireless.Link's rng discipline.
type SessionFaults struct {
	mu  sync.Mutex
	rng *rand.Rand

	burst        *Burst
	snrDropDB    float64
	linkDropP    float64
	latencyMult  float64
	latencyExtra time.Duration
	slowFactor   float64
	poolExhaust  bool

	// Scripted mode (CutLinkAfter): the link works for exactly linkOps
	// operations, then every later one drops. linkOps counts down under mu.
	scripted bool
	linkOps  int

	armed map[Kind]bool
}

// CutLinkAfter returns a scripted fault set whose wireless link serves
// exactly n operations and then goes down for the rest of the session.
// Conformance tests use it to sever the link at an exact protocol
// position — e.g. right after the phase-2 token is in the air but before
// the verification ACK returns — which no probabilistic schedule can
// target reliably.
func CutLinkAfter(n int) *SessionFaults {
	return &SessionFaults{
		scripted: true,
		linkOps:  n,
		armed:    map[Kind]bool{KindLinkDrop: true},
	}
}

// ForSession rolls the schedule's rules for one session. The decision
// stream derives from (baseSeed, faultSalt, session) through sim.SeedFor —
// the identical contract the batch engine and the service's device fleet
// use — so the armed fault set is reproducible regardless of worker count
// or traffic interleaving. A nil schedule arms nothing.
func ForSession(sch *Schedule, baseSeed, session int64) *SessionFaults {
	return ForSessionAt(sch, baseSeed, session, 0)
}

// ForSessionAt is ForSession for engines that track virtual time: rules
// whose virtual window excludes at are skipped without an arming draw,
// exactly like rules whose session window excludes the index — so the
// decision stream stays a pure function of (schedule, seed, session,
// active-rule set), and two sessions starting at the same virtual time
// arm identical faults. ForSession is ForSessionAt at virtual time zero,
// which leaves every schedule without virtual windows bit-identical to
// its historical behavior.
func ForSessionAt(sch *Schedule, baseSeed, session int64, at time.Duration) *SessionFaults {
	sf := &SessionFaults{
		rng:   rand.New(rand.NewSource(sim.SeedFor(baseSeed, faultSalt, session))),
		armed: make(map[Kind]bool),
	}
	if sch == nil {
		return sf
	}
	for _, r := range sch.Rules {
		// Store-scoped kinds belong to the restart stream (ForRestart) and
		// replication-scoped kinds to the batch stream (ForReplication);
		// skipping both without a draw keeps the session stream a pure
		// function of the session rules alone.
		if r.Kind.StoreScoped() || r.Kind.ReplScoped() || !r.covers(session) || !r.coversAt(at) {
			continue
		}
		// One arming draw per in-window rule, in rule order: the stream
		// position of every decision is fixed by the schedule alone.
		if sf.rng.Float64() >= r.Prob {
			continue
		}
		sf.arm(r)
	}
	return sf
}

// arm applies one rule's parameters (with defaults) to the session.
func (sf *SessionFaults) arm(r Rule) {
	sf.armed[r.Kind] = true
	opProb := r.OpProb
	if opProb == 0 {
		opProb = 0.5
	}
	switch r.Kind {
	case KindAcousticBurst:
		durMS := r.BurstMS
		if durMS == 0 {
			durMS = 200
		}
		spl := r.BurstSPL
		if spl == 0 {
			spl = 80
		}
		sf.burst = &Burst{DurationMS: durMS, SPL: spl}
	case KindSNRCollapse:
		drop := r.SNRDropDB
		if drop == 0 {
			drop = 20
		}
		sf.snrDropDB += drop
	case KindLinkDrop:
		sf.linkDropP = opProb
	case KindLatencySpike:
		mult := r.LatencyMult
		if mult == 0 {
			mult = 10
		}
		sf.latencyMult = mult
		sf.latencyExtra = time.Duration(r.ExtraMS * float64(time.Millisecond))
	case KindDeviceSlow:
		f := r.SlowFactor
		if f == 0 {
			f = 4
		}
		sf.slowFactor = f
	case KindPoolExhaust:
		sf.poolExhaust = true
	}
}

// Armed returns the armed fault kinds in stable order (for logs/tests).
func (sf *SessionFaults) Armed() []Kind {
	if sf == nil {
		return nil
	}
	out := make([]Kind, 0, len(sf.armed))
	for k := range sf.armed {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Any reports whether at least one fault is armed.
func (sf *SessionFaults) Any() bool { return sf != nil && len(sf.armed) > 0 }

func (sf *SessionFaults) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	sf.mu.Lock()
	v := sf.rng.Float64()
	sf.mu.Unlock()
	return v < p
}

// LinkFault implements wireless.FaultInjector: consulted once per control
// link operation.
func (sf *SessionFaults) LinkFault() (drop bool, latencyMult float64, extra time.Duration) {
	if sf == nil {
		return false, 1, 0
	}
	if sf.scripted {
		sf.mu.Lock()
		sf.linkOps--
		drop := sf.linkOps < 0
		sf.mu.Unlock()
		return drop, 1, 0
	}
	mult := sf.latencyMult
	if mult < 1 {
		mult = 1
	}
	return sf.roll(sf.linkDropP), mult, sf.latencyExtra
}

// ExtraLossDB reports the armed flat SNR collapse on the acoustic path.
func (sf *SessionFaults) ExtraLossDB() float64 {
	if sf == nil {
		return 0
	}
	return sf.snrDropDB
}

// BurstInterferer returns the armed acoustic burst (which satisfies
// acoustic.Interferer), or nil.
func (sf *SessionFaults) BurstInterferer() *Burst {
	if sf == nil {
		return nil
	}
	return sf.burst
}

// ComputeSlowdown reports the armed device slowdown factor (>= 1).
func (sf *SessionFaults) ComputeSlowdown() float64 {
	if sf == nil || sf.slowFactor < 1 {
		return 1
	}
	return sf.slowFactor
}

// PoolExhausted reports whether admission should reject this session as
// if the worker pool were exhausted.
func (sf *SessionFaults) PoolExhausted() bool { return sf != nil && sf.poolExhaust }

// Burst is a broadband noise burst striking part of a recording — the
// cafe door slam / espresso grinder class of interference the paper's
// field test survives. It satisfies acoustic.Interferer: the channel
// simulator asks it to render alongside the ambient environment and any
// tone jammer.
type Burst struct {
	// DurationMS is the burst length in milliseconds.
	DurationMS float64
	// SPL is the burst level at the receiver.
	SPL float64
}

// Render synthesizes the burst at a random position inside the recording
// window (skipping the first eighth, which is mostly the ambient lead-in,
// so the burst tends to strike the frame itself).
func (b *Burst) Render(n, sampleRate int, rng *rand.Rand) (*audio.Buffer, error) {
	out, err := audio.NewBuffer(sampleRate, n)
	if err != nil {
		return nil, err
	}
	burstLen := int(b.DurationMS / 1000 * float64(sampleRate))
	if burstLen <= 0 {
		return out, nil
	}
	if burstLen > n {
		burstLen = n
	}
	noise, err := audio.Noise(audio.NoiseWhite, burstLen, sampleRate, rng)
	if err != nil {
		return nil, err
	}
	audio.ScaleToSPL(noise, b.SPL)
	start := n / 8
	if maxStart := n - burstLen; start > maxStart {
		start = maxStart
	} else if maxStart > start {
		start += rng.Intn(maxStart - start + 1)
	}
	if err := out.MixAt(start, noise); err != nil {
		return nil, err
	}
	return out, nil
}
