// Package wireless simulates the control channel between the phone and the
// watch — the Android Wear MessageAPI/ChannelAPI running over Bluetooth LE
// or WiFi (Sec. VI "Implementation Details"). The protocol only observes
// message timing, so the simulation models per-transport latency and
// throughput distributions (calibrated to the medians of Fig. 11) and
// link presence as a function of distance.
//
// All durations are simulated: Send and Transfer return how long the
// operation took on the modeled link without sleeping, and the protocol
// layer accumulates them onto its session timeline.
package wireless

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Transport identifies the radio bearer.
type Transport int

// Supported transports.
const (
	Bluetooth Transport = iota + 1
	WiFi
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case Bluetooth:
		return "bluetooth"
	case WiFi:
		return "wifi"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Valid reports whether t is a known transport.
func (t Transport) Valid() bool { return t == Bluetooth || t == WiFi }

// transportModel holds the latency/throughput parameters of a bearer.
type transportModel struct {
	msgLatency       time.Duration // median one-way message latency
	msgJitterFrac    float64       // lognormal-ish jitter fraction
	throughputBps    float64       // sustained file-transfer throughput
	setupLatency     time.Duration // per-transfer channel setup cost
	maxRangeMeters   float64       // link presence bound (LOS)
	perByteOverheads float64       // protocol overhead multiplier
}

// Calibrated to the medians reported in Fig. 11: Wear MessageAPI messages
// take tens of milliseconds over Bluetooth and around ten over WiFi; file
// transfer of a ~100 KiB audio clip takes over a second on Bluetooth and a
// fraction of that on WiFi.
func (t Transport) model() (transportModel, error) {
	switch t {
	case Bluetooth:
		return transportModel{
			msgLatency:       45 * time.Millisecond,
			msgJitterFrac:    0.35,
			throughputBps:    900e3, // ~0.9 Mbit/s effective BLE/BR
			setupLatency:     120 * time.Millisecond,
			maxRangeMeters:   12, // the paper measured 10-15 m LOS
			perByteOverheads: 1.15,
		}, nil
	case WiFi:
		return transportModel{
			msgLatency:       11 * time.Millisecond,
			msgJitterFrac:    0.3,
			throughputBps:    22e6,
			setupLatency:     25 * time.Millisecond,
			maxRangeMeters:   35,
			perByteOverheads: 1.08,
		}, nil
	default:
		return transportModel{}, fmt.Errorf("wireless: unknown transport %d", int(t))
	}
}

// FaultInjector perturbs the link one operation at a time. The fault
// layer implements it structurally (this package never imports it): each
// SendMessage/TransferFile consults the injector once, and a drop surfaces
// as ErrLinkDown — exactly the failure mode a walked-out-of-range or
// Bluetooth-congested watch produces in the field.
type FaultInjector interface {
	// LinkFault returns whether this operation is dropped, a latency
	// multiplier (>= 1), and a fixed extra latency to add.
	LinkFault() (drop bool, latencyMult float64, extra time.Duration)
}

// Link is a simulated bidirectional control link between two paired
// devices.
type Link struct {
	Transport Transport
	// Distance between the devices in meters, used for presence checks.
	Distance float64
	// Down forces the link absent regardless of distance (e.g. Bluetooth
	// disabled), the first filter of the unlocking protocol.
	Down bool
	// Faults, when non-nil, perturbs individual operations (chaos runs).
	Faults FaultInjector

	// mu serializes rng: one link is shared by both protocol endpoints,
	// and concurrent sends (an abort racing in-flight traffic) would
	// otherwise race on the non-thread-safe source. Jitter draw order —
	// and so exact latencies — stays deterministic only for serialized
	// use; concurrent senders get scheduling-ordered draws.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewLink creates a control link. rng drives latency jitter; pass a seeded
// source for reproducible experiments.
func NewLink(transport Transport, distance float64, rng *rand.Rand) (*Link, error) {
	l := new(Link)
	if err := l.Reset(transport, distance, rng); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset rebuilds l in place as NewLink builds a link, so a caller that
// runs link after link can keep one. l must not be in use.
func (l *Link) Reset(transport Transport, distance float64, rng *rand.Rand) error {
	if !transport.Valid() {
		return fmt.Errorf("wireless: unknown transport %d", int(transport))
	}
	if distance < 0 {
		return fmt.Errorf("wireless: distance %.2f m must be non-negative", distance)
	}
	if rng == nil {
		return fmt.Errorf("wireless: link requires a random source")
	}
	*l = Link{Transport: transport, Distance: distance, rng: rng}
	return nil
}

// ErrLinkDown is returned when the control link is absent.
var ErrLinkDown = fmt.Errorf("wireless: link down")

// Connected reports whether the control link is present. The paper's
// preliminary experiment found Android trusted devices stay "connected" up
// to 10-15 m LOS — exactly the over-broad boundary WearLock's acoustic
// channel narrows.
func (l *Link) Connected() bool {
	if l.Down {
		return false
	}
	m, err := l.Transport.model()
	if err != nil {
		return false
	}
	return l.Distance <= m.maxRangeMeters
}

// jittered draws a latency sample around the median with multiplicative
// jitter, never less than half the median.
func (l *Link) jittered(median time.Duration, frac float64) time.Duration {
	l.mu.Lock()
	mult := 1 + frac*l.rng.NormFloat64()
	l.mu.Unlock()
	if mult < 0.5 {
		mult = 0.5
	}
	return time.Duration(float64(median) * mult)
}

// perturb applies the per-operation fault decision to a computed latency.
// Drops report ErrLinkDown so callers take the same path as a genuinely
// absent link.
func (l *Link) perturb(latency time.Duration) (time.Duration, error) {
	if l.Faults == nil {
		return latency, nil
	}
	drop, mult, extra := l.Faults.LinkFault()
	if drop {
		return 0, ErrLinkDown
	}
	if mult > 1 {
		latency = time.Duration(float64(latency) * mult)
	}
	if extra > 0 {
		latency += extra
	}
	return latency, nil
}

// SendMessage simulates a one-way MessageAPI send of the given payload
// size and returns its latency.
func (l *Link) SendMessage(payloadBytes int) (time.Duration, error) {
	if payloadBytes < 0 {
		return 0, fmt.Errorf("wireless: negative payload size %d", payloadBytes)
	}
	if !l.Connected() {
		return 0, ErrLinkDown
	}
	m, err := l.Transport.model()
	if err != nil {
		return 0, err
	}
	latency := l.jittered(m.msgLatency, m.msgJitterFrac)
	// Payload serialization is negligible for control messages but not
	// free for multi-kilobyte sensor traces.
	latency += time.Duration(float64(payloadBytes) * m.perByteOverheads / m.throughputBps * float64(time.Second))
	return l.perturb(latency)
}

// TransferFile simulates a ChannelAPI bulk transfer (e.g. a recorded audio
// clip shipped to the phone for offloaded processing) and returns its
// duration.
func (l *Link) TransferFile(sizeBytes int) (time.Duration, error) {
	if sizeBytes < 0 {
		return 0, fmt.Errorf("wireless: negative file size %d", sizeBytes)
	}
	if !l.Connected() {
		return 0, ErrLinkDown
	}
	m, err := l.Transport.model()
	if err != nil {
		return 0, err
	}
	setup := l.jittered(m.setupLatency, m.msgJitterFrac)
	transfer := time.Duration(float64(sizeBytes) * 8 * m.perByteOverheads / m.throughputBps * float64(time.Second))
	// Throughput fluctuates too.
	transfer = l.jittered(transfer, m.msgJitterFrac/2)
	return l.perturb(setup + transfer)
}

// RoundTrip simulates a request/response exchange of small control
// messages and returns the RTT. The replay-defense timing window is built
// from this measurement (Sec. IV "Record and Replay Attack").
func (l *Link) RoundTrip() (time.Duration, error) {
	out, err := l.SendMessage(64)
	if err != nil {
		return 0, err
	}
	back, err := l.SendMessage(64)
	if err != nil {
		return 0, err
	}
	return out + back, nil
}
