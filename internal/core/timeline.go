// Package core implements the WearLock controllers and the two-phase
// smartwatch-assisted unlocking protocol of Fig. 2: a Bluetooth-gated
// RTS/CTS channel-probing phase (with motion, ambient-noise, and NLOS
// pre-filters plus sub-channel and modulation adaptation) followed by the
// OFDM transmission of a one-time password, its (optionally offloaded)
// demodulation, verification, and the keyguard decision.
package core

import (
	"fmt"
	"strings"
	"time"
)

// StepKind classifies where a protocol step's time is spent, matching the
// breakdown of Figs. 10-12 (computation delay vs communication delay vs
// on-air audio time).
type StepKind int

// Step kinds.
const (
	StepCompute StepKind = iota + 1
	StepComm
	StepAcoustic
	// StepWait is idle simulated time: resilience backoff delays and the
	// user typing a fallback PIN. It counts toward the end-to-end unlock
	// delay but burns no device energy.
	StepWait
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case StepCompute:
		return "compute"
	case StepComm:
		return "comm"
	case StepAcoustic:
		return "acoustic"
	case StepWait:
		return "wait"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one timed protocol event on the session timeline.
type Step struct {
	Name     string
	Kind     StepKind
	Device   string // which device's clock/battery this step burns
	Duration time.Duration
}

// Timeline accumulates the simulated protocol schedule. Steps are
// sequential: the session total is the sum of step durations.
type Timeline struct {
	steps []Step
}

// Add appends a step.
func (t *Timeline) Add(name string, kind StepKind, deviceName string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.steps = append(t.steps, Step{Name: name, Kind: kind, Device: deviceName, Duration: d})
}

// Append concatenates another timeline's steps onto this one — the
// resilient session accumulates per-attempt timelines into a single
// end-to-end schedule.
func (t *Timeline) Append(other *Timeline) {
	if other == nil {
		return
	}
	t.steps = append(t.steps, other.steps...)
}

// Steps returns a copy of the recorded steps.
func (t *Timeline) Steps() []Step {
	out := make([]Step, len(t.steps))
	copy(out, t.steps)
	return out
}

// Total returns the end-to-end session duration.
func (t *Timeline) Total() time.Duration {
	var sum time.Duration
	for _, s := range t.steps {
		sum += s.Duration
	}
	return sum
}

// TotalKind sums the duration of all steps of one kind.
func (t *Timeline) TotalKind(kind StepKind) time.Duration {
	var sum time.Duration
	for _, s := range t.steps {
		if s.Kind == kind {
			sum += s.Duration
		}
	}
	return sum
}

// TotalFor sums the duration of steps whose name has the given prefix,
// used to extract per-phase breakdowns (e.g. "phase1/", "phase2/").
func (t *Timeline) TotalFor(prefix string) time.Duration {
	var sum time.Duration
	for _, s := range t.steps {
		if strings.HasPrefix(s.Name, prefix) {
			sum += s.Duration
		}
	}
	return sum
}

// String renders the timeline as an aligned table for logs and examples.
func (t *Timeline) String() string {
	var b strings.Builder
	for _, s := range t.steps {
		fmt.Fprintf(&b, "%-34s %-9s %-13s %9.1fms\n", s.Name, s.Kind, s.Device, float64(s.Duration.Microseconds())/1000)
	}
	fmt.Fprintf(&b, "%-34s %-9s %-13s %9.1fms\n", "TOTAL", "", "", float64(t.Total().Microseconds())/1000)
	return b.String()
}

// EnergyLedger tallies per-device energy in joules. A session charges
// two or three devices, so the ledger is a short slice searched linearly
// rather than a map: one entry per device, created by its first charge of
// either kind, each kind summed in charge order.
type EnergyLedger struct {
	devices []deviceEnergy
}

// deviceEnergy is one device's running compute and radio sums.
type deviceEnergy struct {
	name           string
	compute, radio float64
}

// NewEnergyLedger returns an empty ledger.
func NewEnergyLedger() *EnergyLedger {
	return &EnergyLedger{devices: make([]deviceEnergy, 0, 2)}
}

// reset empties the ledger, keeping its storage.
func (e *EnergyLedger) reset() { e.devices = e.devices[:0] }

// find returns the device's entry, nil when it has none.
func (e *EnergyLedger) find(deviceName string) *deviceEnergy {
	for i := range e.devices {
		if e.devices[i].name == deviceName {
			return &e.devices[i]
		}
	}
	return nil
}

// entry returns the device's entry, adding a zero one when it has none.
func (e *EnergyLedger) entry(deviceName string) *deviceEnergy {
	if d := e.find(deviceName); d != nil {
		return d
	}
	e.devices = append(e.devices, deviceEnergy{name: deviceName})
	return &e.devices[len(e.devices)-1]
}

// AddCompute charges compute energy to a device.
func (e *EnergyLedger) AddCompute(deviceName string, joules float64) {
	e.entry(deviceName).compute += joules
}

// AddRadio charges radio energy to a device.
func (e *EnergyLedger) AddRadio(deviceName string, joules float64) {
	e.entry(deviceName).radio += joules
}

// Merge adds another ledger's charges into this one.
func (e *EnergyLedger) Merge(other *EnergyLedger) {
	if other == nil {
		return
	}
	for _, o := range other.devices {
		d := e.entry(o.name)
		d.compute += o.compute
		d.radio += o.radio
	}
}

// Compute returns compute joules charged to a device.
func (e *EnergyLedger) Compute(deviceName string) float64 {
	if d := e.find(deviceName); d != nil {
		return d.compute
	}
	return 0
}

// Radio returns radio joules charged to a device.
func (e *EnergyLedger) Radio(deviceName string) float64 {
	if d := e.find(deviceName); d != nil {
		return d.radio
	}
	return 0
}

// Total returns all joules charged to a device.
func (e *EnergyLedger) Total(deviceName string) float64 {
	if d := e.find(deviceName); d != nil {
		return d.compute + d.radio
	}
	return 0
}
