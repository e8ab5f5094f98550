package core

import (
	"fmt"
	"math/rand"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/dsp"
	"wearlock/internal/fault"
	"wearlock/internal/modem"
	"wearlock/internal/motion"
)

// Scenario describes the physical situation of one unlock attempt: where
// the devices are, what the room sounds like, and what the user is doing.
// The field-test conditions of Table I and the case-study grips of Sec. VI
// are all expressible as scenarios.
type Scenario struct {
	Name string

	// Distance is the phone-to-watch separation in meters.
	Distance float64
	// Env is the ambient environment; nil means silence.
	Env *acoustic.Environment
	// Activity is the user's motion context.
	Activity motion.Activity

	// SameBody: the phone and watch ride the same body, so motion traces
	// correlate. False models an attacker holding the victim's phone.
	SameBody bool
	// SameRoom: both devices hear the same ambient noise field. False
	// models devices in different rooms (Bluetooth still connected).
	SameRoom bool
	// SameHand: the phone is held by the hand wearing the watch, placing
	// the body in the direct acoustic path (NLOS, Table I "Same Hand").
	SameHand bool
	// CoverSpeaker models the case-study participant who gripped the
	// phone over its speaker: severe direct-path blocking.
	CoverSpeaker bool

	// Jammer optionally injects interfering tones (Fig. 9).
	Jammer *acoustic.Jammer

	// Faults carries this session's armed chaos faults (nil outside chaos
	// runs). The scenario wires them into the acoustic link it builds; the
	// session wires them into the wireless link and device profiles.
	Faults *fault.SessionFaults
}

// Validate checks scenario plausibility.
func (s Scenario) Validate() error {
	if s.Distance <= 0 {
		return fmt.Errorf("core: scenario distance %.3f m must be positive", s.Distance)
	}
	return nil
}

// DefaultScenario is the nominal use case: watch on wrist, phone in the
// other hand at 15 cm, office ambience, user sitting.
func DefaultScenario() Scenario {
	return Scenario{
		Name:     "default",
		Distance: 0.15,
		Env:      acoustic.Office(),
		Activity: motion.Sitting,
		SameBody: true,
		SameRoom: true,
	}
}

// AcousticLink builds the phone-speaker-to-receiver path for the
// scenario. The audible band terminates at the watch microphone; the
// near-ultrasound band models the paper's emulated phone-phone pair and
// terminates at a phone microphone.
func (s Scenario) AcousticLink(band modem.Band, sampleRate int, rng *rand.Rand) (*acoustic.Link, error) {
	link := new(acoustic.Link)
	if err := s.acousticLinkInto(link, band, sampleRate, rng); err != nil {
		return nil, err
	}
	return link, nil
}

// acousticLinkInto is AcousticLink building into link in place.
func (s Scenario) acousticLinkInto(link *acoustic.Link, band modem.Band, sampleRate int, rng *rand.Rand) error {
	if err := s.Validate(); err != nil {
		return err
	}
	mic := acoustic.WatchMic()
	if band == modem.BandNearUltrasound {
		mic = acoustic.PhoneMic()
	}
	if err := link.Reset(sampleRate, s.Distance, acoustic.PhoneSpeaker(), mic, s.Env, rng); err != nil {
		return err
	}
	// Body blocking is strongly frequency-dependent: audible wavelengths
	// (6-30 cm) diffract around a hand while near-ultrasound (~2 cm) is
	// shadowed hard — the effect behind Table I's same-hand rows.
	switch {
	case s.CoverSpeaker:
		loss := 18.0
		if band == modem.BandNearUltrasound {
			loss = 24
		}
		link.NLOS = acoustic.NLOSConfig{Enabled: true, DirectLossDB: loss, EchoLossDB: 10, FarEchoLossDB: 12}
	case s.SameHand:
		loss := 2.5
		if band == modem.BandNearUltrasound {
			loss = 10
		}
		link.NLOS = acoustic.NLOSConfig{Enabled: true, DirectLossDB: loss, EchoLossDB: 12, FarEchoLossDB: 13}
	}
	link.Jammer = s.Jammer
	if s.Faults != nil {
		link.ExtraLossDB = s.Faults.ExtraLossDB()
		if burst := s.Faults.BurstInterferer(); burst != nil {
			link.Extra = append(link.Extra, burst)
		}
	}
	return nil
}

// AcousticPath is the transmission abstraction the protocol speaks to.
// The honest path wraps the scenario's simulated link; the attack package
// substitutes adversarial implementations (record-and-replay, relays).
//
// Ownership: frame is scratch the session reuses once Transmit returns,
// so Transmit must not keep it (copy it to keep it). The recording
// Transmit returns belongs to the caller; the session never recycles it
// unless it built the path itself.
type AcousticPath interface {
	// Transmit plays a frame from the phone speaker at the given volume
	// and returns the receiver-side recording.
	Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error)
	// ExtraLatency reports additional end-to-end delay the path inserts
	// beyond sound propagation — zero for an honest path, positive for
	// store-and-forward adversaries. The replay timing window checks it.
	ExtraLatency() time.Duration
	// NominalLeadIn reports how many ambient samples the receiver
	// records before playback starts (the Bluetooth-signaled recording
	// head). The distance-bounding extension subtracts it from the
	// detected preamble position to estimate acoustic time of flight;
	// an adversarial path cannot shrink it without cutting off its own
	// replayed signal.
	NominalLeadIn() int
}

// linkPath is the honest AcousticPath over a simulated link.
type linkPath struct {
	link *acoustic.Link
	// pooled marks a path the session built for itself: its recordings
	// come from the dsp pool and never leave the session, which hands
	// them back through releaseRecording before it transmits again.
	pooled bool
	// rec is a pooled path's recording, valid until that release.
	rec audio.Buffer
}

var _ AcousticPath = (*linkPath)(nil)

// NewLinkPath wraps an acoustic link as an honest transmission path whose
// recordings are caller-owned.
func NewLinkPath(link *acoustic.Link) AcousticPath {
	return &linkPath{link: link}
}

// Transmit implements AcousticPath.
func (p *linkPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	if p.pooled {
		if err := p.link.TransmitPooled(&p.rec, frame, volumeSPL); err != nil {
			return nil, err
		}
		return &p.rec, nil
	}
	return p.link.Transmit(frame, volumeSPL)
}

// ExtraLatency implements AcousticPath.
func (p *linkPath) ExtraLatency() time.Duration { return 0 }

// NominalLeadIn implements AcousticPath.
func (p *linkPath) NominalLeadIn() int { return p.link.LeadIn }

// sessionPath builds the pooled honest path over the scenario's link in
// ws, for an attempt that has no caller-supplied path.
func (s *System) sessionPath(sc Scenario, ws *workspace) error {
	if err := sc.acousticLinkInto(&ws.link, s.cfg.Band, probeConfig(s.cfg.Band).SampleRate, s.rng); err != nil {
		return err
	}
	ws.path = linkPath{link: &ws.link, pooled: true}
	return nil
}

// releaseRecording recycles rec after its last reader when path is one
// the session built itself; caller-supplied paths keep their recordings.
func releaseRecording(path AcousticPath, rec *audio.Buffer) {
	if p, ok := path.(*linkPath); ok && p.pooled {
		dsp.PutFloat(rec.Samples)
		rec.Samples = nil
	}
}
