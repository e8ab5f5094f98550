// Package attack implements the adversaries of the paper's threat model
// (Sec. IV) against the WearLock protocol: brute-force token guessing,
// co-located eavesdropping/unlocking, record-and-replay, and live relays.
// Each attack is expressed as either an adversarial AcousticPath installed
// into a session or a standalone procedure against the verifier, so the
// security tests can assert exactly which defense stops which attack.
package attack

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/core"
	"wearlock/internal/modem"
	"wearlock/internal/otp"
)

// BruteForce attempts to guess OTP tokens against a verifier. It returns
// how many guesses were accepted before the verifier locked out. With a
// 2^31 keyspace and a three-failure budget, success probability is
// ~3/2^31 (Sec. IV-1).
func BruteForce(ver *otp.Verifier, guesses int, rng *rand.Rand) (accepted, attempted int, err error) {
	if ver == nil || rng == nil {
		return 0, 0, fmt.Errorf("attack: brute force requires a verifier and random source")
	}
	for i := 0; i < guesses; i++ {
		token := uint32(rng.Int63()) & 0x7fffffff
		ok, err := ver.Verify(token)
		if err == otp.ErrLockedOut {
			return accepted, attempted, nil
		}
		if err != nil {
			return accepted, attempted, err
		}
		attempted++
		if ok {
			accepted++
		}
	}
	return accepted, attempted, nil
}

// RecordingPath wraps an honest acoustic path and keeps a copy of every
// transmitted frame's receiver-side recording — the eavesdropper of the
// record-and-replay attack. The recordings it captures are what the
// attacker later replays.
type RecordingPath struct {
	Inner      core.AcousticPath
	Recordings []*audio.Buffer
}

var _ core.AcousticPath = (*RecordingPath)(nil)

// Transmit implements core.AcousticPath, recording a copy.
func (p *RecordingPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	rec, err := p.Inner.Transmit(frame, volumeSPL)
	if err != nil {
		return nil, err
	}
	p.Recordings = append(p.Recordings, rec.Clone())
	return rec, nil
}

// ExtraLatency implements core.AcousticPath; passive eavesdropping adds
// none.
func (p *RecordingPath) ExtraLatency() time.Duration { return p.Inner.ExtraLatency() }

// NominalLeadIn implements core.AcousticPath.
func (p *RecordingPath) NominalLeadIn() int { return p.Inner.NominalLeadIn() }

// ReplayPath answers every transmission with a previously captured
// recording instead of the live frame — the man-in-the-middle replaying a
// stale token. Store-and-forward hardware (recorder + player) adds
// ProcessingDelay to the acoustic path, which the protocol's timing
// window inspects.
type ReplayPath struct {
	// Captured is the stale recording to replay (typically the last
	// phase-2 capture of a RecordingPath).
	Captured *audio.Buffer
	// ProcessingDelay is the store-and-forward latency of the replay
	// rig. Real recorder/player loops add hundreds of milliseconds; a
	// hypothetical ideal rig may set it to zero to probe the OTP defense
	// in isolation.
	ProcessingDelay time.Duration
	// Inner, when set, carries the phase-1 probe honestly (the attacker
	// relays the RTS/CTS exchange live and substitutes only the token
	// frame), so the session reaches OTP verification with the stale
	// capture.
	Inner core.AcousticPath

	calls int
}

var _ core.AcousticPath = (*ReplayPath)(nil)

// Transmit implements core.AcousticPath: probe frames pass through the
// inner path (when configured); the token frame is dropped and the stale
// capture delivered instead. The rig's store-and-forward delay shows up
// physically: the replayed signal arrives ProcessingDelay late in the
// receiver's recording, which is what acoustic distance bounding sees.
func (p *ReplayPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	p.calls++
	if p.Inner != nil && p.calls == 1 {
		return p.Inner.Transmit(frame, volumeSPL)
	}
	if p.Captured == nil {
		return nil, fmt.Errorf("attack: replay path has no captured recording")
	}
	out := p.Captured.Clone()
	shiftRecording(out, p.ProcessingDelay)
	return out, nil
}

// NominalLeadIn implements core.AcousticPath.
func (p *ReplayPath) NominalLeadIn() int {
	if p.Inner != nil {
		return p.Inner.NominalLeadIn()
	}
	if p.Captured != nil {
		return p.Captured.Rate / 8 // the honest link's recording head
	}
	return 0
}

// ExtraLatency implements core.AcousticPath.
func (p *ReplayPath) ExtraLatency() time.Duration { return p.ProcessingDelay }

// RelayPath forwards the live frame (a perfect wormhole between distant
// rooms) while adding the relay equipment's processing delay and the
// ADC/DAC distortion of consumer relay hardware. The paper argues this
// attack is hard precisely because flat-response relay hardware is
// impractical (Sec. IV-4).
type RelayPath struct {
	Inner core.AcousticPath
	// ProcessingDelay is the capture-transmit-replay latency of the
	// relay rig.
	ProcessingDelay time.Duration
	// HardwareJitter injects the relay's own ADC/DAC clock jitter in
	// seconds RMS; 0 models ideal (unobtainable) hardware.
	HardwareJitter float64
	rng            *rand.Rand
}

// NewRelayPath builds a relay over an honest path.
func NewRelayPath(inner core.AcousticPath, delay time.Duration, jitter float64, rng *rand.Rand) (*RelayPath, error) {
	if inner == nil {
		return nil, fmt.Errorf("attack: relay requires an inner path")
	}
	if jitter > 0 && rng == nil {
		return nil, fmt.Errorf("attack: relay with jitter requires a random source")
	}
	return &RelayPath{Inner: inner, ProcessingDelay: delay, HardwareJitter: jitter, rng: rng}, nil
}

var _ core.AcousticPath = (*RelayPath)(nil)

// Transmit implements core.AcousticPath.
func (p *RelayPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	rec, err := p.Inner.Transmit(frame, volumeSPL)
	if err != nil {
		return nil, err
	}
	out := rec
	if p.HardwareJitter > 0 {
		// The relay's own capture/playback chain re-samples the audio
		// with its imperfect clock, modeled exactly like a microphone's
		// clock jitter.
		out = rec.Clone()
		mic := relayMic(p.HardwareJitter)
		if err := mic.Apply(out, p.rng); err != nil {
			return nil, err
		}
	} else if p.ProcessingDelay > 0 {
		out = rec.Clone()
	}
	// The relay's capture-forward-replay latency arrives as late signal
	// in the recording — visible to acoustic distance bounding.
	shiftRecording(out, p.ProcessingDelay)
	return out, nil
}

// ExtraLatency implements core.AcousticPath.
func (p *RelayPath) ExtraLatency() time.Duration {
	return p.Inner.ExtraLatency() + p.ProcessingDelay
}

// NominalLeadIn implements core.AcousticPath.
func (p *RelayPath) NominalLeadIn() int { return p.Inner.NominalLeadIn() }

// shiftRecording delays a recording's content by prepending that much
// near-silence, as a store-and-forward rig physically does.
func shiftRecording(rec *audio.Buffer, delay time.Duration) {
	if delay <= 0 || rec == nil {
		return
	}
	shift := int(delay.Seconds() * float64(rec.Rate))
	if shift <= 0 {
		return
	}
	head := make([]float64, shift, shift+len(rec.Samples))
	rec.Samples = append(head, rec.Samples...)
}

// CoLocatedAttempt models the attacker who grabs the victim's phone and
// tries to unlock it at a given distance from the victim's watch: motion
// no longer matches (different body), and beyond ~1 m the acoustic channel
// refuses. It returns the session results of n attempts.
func CoLocatedAttempt(sys *core.System, distance float64, n int) ([]*core.Result, error) {
	if sys == nil {
		return nil, fmt.Errorf("attack: co-located attempt requires a system")
	}
	sc := core.DefaultScenario()
	sc.Name = "co-located-attack"
	sc.Distance = distance
	sc.SameBody = false // the attacker's hand, not the victim's body
	sc.SameRoom = true  // close enough to share the noise field
	out := make([]*core.Result, 0, n)
	for i := 0; i < n; i++ {
		res, err := sys.Unlock(context.Background(), sc, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		if res.Outcome == core.OutcomeLockedOut {
			break
		}
	}
	return out, nil
}

// TokenFromRecording attempts to demodulate an OTP token from an
// eavesdropped recording — what an attacker learns from the acoustic
// channel alone (the channel is assumed insecure; OTP freshness is the
// defense, Sec. IV).
func TokenFromRecording(rec *audio.Buffer, cfg modem.Config, repetition int) (uint32, error) {
	demod, err := modem.NewDemodulator(cfg)
	if err != nil {
		return 0, err
	}
	coded := otp.BitLength * repetition
	rx, err := demod.Demodulate(rec, coded)
	if err != nil {
		return 0, fmt.Errorf("attack: eavesdropped demodulation: %w", err)
	}
	bits, err := modem.DecodeRepetition(rx.Bits, repetition)
	if err != nil {
		return 0, err
	}
	return otp.TokenFromBits(bits)
}

// relayMic models the relay rig's own capture/playback chain.
func relayMic(jitter float64) acoustic.MicProfile {
	return acoustic.MicProfile{
		Name:        "relay-rig",
		ClockJitter: jitter,
		ADCBits:     16,
	}
}
