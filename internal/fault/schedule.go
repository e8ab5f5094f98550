// Package fault is the deterministic fault-injection layer of the chaos
// harness. A Schedule declares which faults can strike — acoustic burst
// jamming and SNR collapse on the channel, drops/latency spikes on the
// wireless control link, control-message loss/duplication/reorder (inert:
// they arm and draw, but nothing consumes them), device slowdown, and
// worker-pool exhaustion at admission — and ForSession rolls the dice once
// per session from a seed derived with the batch engine's sim.SeedFor
// contract, so an identical (schedule, seed, session index) triple arms
// the identical faults no matter how many workers execute the run or in
// what order.
//
// The package sits below every layer it perturbs: it defines no protocol
// types and implements the small injection interfaces the consumer layers
// declare (acoustic.Interferer, wireless.FaultInjector) structurally, so
// acoustic/wireless/core never import it — only the composition roots
// (service, experiments, cmd) do.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Kind names one fault class a schedule rule can arm.
type Kind string

// The fault classes. Each maps onto one injection point, except the
// three msg-* kinds, which are inert: they parse, validate, scale and take
// their arming draw in ForSessionAt (so schedules that list them keep
// their decision streams), but no layer consumes them.
//
//	acoustic-burst   broadband noise burst over part of the recording
//	snr-collapse     flat extra path loss on the acoustic downlink
//	link-drop        wireless control-link operations fail (per-op prob)
//	latency-spike    wireless latencies multiplied and/or offset
//	msg-loss         inert (named for control-message loss)
//	msg-dup          inert (named for control-message duplication)
//	msg-reorder      inert (named for control-message reordering)
//	device-slow      device compute throughput divided by a factor
//	pool-exhaust     admission rejected as if the worker pool were full
const (
	KindAcousticBurst Kind = "acoustic-burst"
	KindSNRCollapse   Kind = "snr-collapse"
	KindLinkDrop      Kind = "link-drop"
	KindLatencySpike  Kind = "latency-spike"
	KindMsgLoss       Kind = "msg-loss"
	KindMsgDup        Kind = "msg-dup"
	KindMsgReorder    Kind = "msg-reorder"
	KindDeviceSlow    Kind = "device-slow"
	KindPoolExhaust   Kind = "pool-exhaust"
)

// Kinds returns every known fault kind in stable order, the session
// kinds first, then the store-scoped restart kinds, then the
// replication-stream kinds. New kinds append at the end: schedule
// validity must never depend on list position.
func Kinds() []Kind {
	return []Kind{
		KindAcousticBurst, KindSNRCollapse, KindLinkDrop, KindLatencySpike,
		KindMsgLoss, KindMsgDup, KindMsgReorder, KindDeviceSlow, KindPoolExhaust,
		KindStoreFsyncLoss, KindStoreTornWrite, KindStoreBitFlip, KindStoreSnapOnly,
		KindStoreDropSegment,
		KindReplDropBatch, KindReplDupBatch, KindReplTruncBatch,
	}
}

// Valid reports whether k names a known fault kind.
func (k Kind) Valid() bool {
	for _, known := range Kinds() {
		if k == known {
			return true
		}
	}
	return false
}

// Rule arms one fault kind with a probability over a window of session
// indices. Parameter fields apply only to the kinds that read them;
// Validate rejects values that could not describe a physical fault
// (negative durations, NaN, probabilities outside [0, 1]).
type Rule struct {
	Kind Kind `json:"kind"`
	// Prob is the per-session arming probability in [0, 1].
	Prob float64 `json:"prob"`
	// From/To bound the half-open session-index window [From, To) the
	// rule covers; To == 0 means unbounded. Two rules of the same kind
	// must not overlap — the replay contract needs exactly one arming
	// decision per (kind, session).
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`

	// FromVirtualMS/ToVirtualMS additionally bound the rule to a
	// half-open window of engine virtual time, in milliseconds since the
	// run began; both zero means always live. Virtual windows let a
	// schedule model environments that change while a load is in flight
	// (the café fills up at t=30s) instead of by admission count. Only
	// engines that track virtual time (vtime, serial replay) resolve
	// them — ForSession evaluates at virtual time zero, so a rule with
	// FromVirtualMS > 0 never fires on the plain path. Same-kind rules
	// may overlap in session window if their virtual windows are
	// disjoint.
	FromVirtualMS float64 `json:"from_virtual_ms,omitempty"`
	ToVirtualMS   float64 `json:"to_virtual_ms,omitempty"`

	// SNRDropDB is the extra acoustic path loss (snr-collapse) or the
	// burst level above the planned receiver SPL (acoustic-burst).
	SNRDropDB float64 `json:"snr_drop_db,omitempty"`
	// BurstMS is the acoustic-burst duration in milliseconds.
	BurstMS float64 `json:"burst_ms,omitempty"`
	// BurstSPL is the burst level at the receiver in dB SPL;
	// 0 means the 80 dB default.
	BurstSPL float64 `json:"burst_spl,omitempty"`
	// OpProb is the per-operation probability for link-drop once the
	// rule is armed for a session; 0 means the 0.5 default. The inert
	// msg-* kinds validate it but nothing reads it.
	OpProb float64 `json:"op_prob,omitempty"`
	// LatencyMult multiplies wireless latencies (latency-spike);
	// 0 means the 10x default.
	LatencyMult float64 `json:"latency_mult,omitempty"`
	// ExtraMS is a fixed latency offset added per wireless operation.
	ExtraMS float64 `json:"extra_ms,omitempty"`
	// SlowFactor divides device compute throughput (device-slow);
	// 0 means the 4x default.
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

// window returns the rule's effective session window with To resolved.
func (r Rule) window() (from, to int64) {
	from = r.From
	to = r.To
	if to == 0 {
		to = math.MaxInt64
	}
	return from, to
}

// covers reports whether session index i falls inside the rule's window.
func (r Rule) covers(i int64) bool {
	from, to := r.window()
	return i >= from && i < to
}

// virtualWindow returns the rule's effective virtual-time window.
func (r Rule) virtualWindow() (from, to time.Duration) {
	from = time.Duration(r.FromVirtualMS * float64(time.Millisecond))
	to = time.Duration(math.MaxInt64)
	if r.ToVirtualMS != 0 {
		to = time.Duration(r.ToVirtualMS * float64(time.Millisecond))
	}
	return from, to
}

// coversAt reports whether virtual time at falls inside the rule's
// virtual window. Rules without virtual bounds cover all of time.
func (r Rule) coversAt(at time.Duration) bool {
	from, to := r.virtualWindow()
	return at >= from && at < to
}

// HasVirtualWindows reports whether any rule is bounded in virtual time —
// the signal for virtual-time engines that a session's fault roll depends
// on when it starts, not just on its index.
func (s *Schedule) HasVirtualWindows() bool {
	for _, r := range s.Rules {
		if r.FromVirtualMS != 0 || r.ToVirtualMS != 0 {
			return true
		}
	}
	return false
}

// Validate checks one rule in isolation.
func (r Rule) Validate() error {
	if !r.Kind.Valid() {
		return fmt.Errorf("fault: unknown kind %q", string(r.Kind))
	}
	if !isFiniteProb(r.Prob) {
		return fmt.Errorf("fault: %s prob %v outside [0, 1]", r.Kind, r.Prob)
	}
	if r.OpProb != 0 && !isFiniteProb(r.OpProb) {
		return fmt.Errorf("fault: %s op_prob %v outside [0, 1]", r.Kind, r.OpProb)
	}
	if r.From < 0 {
		return fmt.Errorf("fault: %s window start %d must be non-negative", r.Kind, r.From)
	}
	if r.To != 0 && r.To <= r.From {
		return fmt.Errorf("fault: %s window [%d, %d) is empty", r.Kind, r.From, r.To)
	}
	for name, v := range map[string]float64{
		"from_virtual_ms": r.FromVirtualMS,
		"to_virtual_ms":   r.ToVirtualMS,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("fault: %s %s %v must be finite and non-negative", r.Kind, name, v)
		}
	}
	if r.ToVirtualMS != 0 && r.ToVirtualMS <= r.FromVirtualMS {
		return fmt.Errorf("fault: %s virtual window [%v, %v)ms is empty", r.Kind, r.FromVirtualMS, r.ToVirtualMS)
	}
	for name, v := range map[string]float64{
		"snr_drop_db":  r.SNRDropDB,
		"burst_ms":     r.BurstMS,
		"burst_spl":    r.BurstSPL,
		"latency_mult": r.LatencyMult,
		"extra_ms":     r.ExtraMS,
		"slow_factor":  r.SlowFactor,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: %s %s is not finite", r.Kind, name)
		}
		if v < 0 {
			return fmt.Errorf("fault: %s %s %v must be non-negative", r.Kind, name, v)
		}
	}
	if r.LatencyMult != 0 && r.LatencyMult < 1 {
		return fmt.Errorf("fault: %s latency_mult %v must be >= 1", r.Kind, r.LatencyMult)
	}
	if r.SlowFactor != 0 && r.SlowFactor < 1 {
		return fmt.Errorf("fault: %s slow_factor %v must be >= 1", r.Kind, r.SlowFactor)
	}
	return nil
}

func isFiniteProb(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 1
}

// Schedule is a named set of fault rules — the unit a chaos run is
// parameterized by and the unit checked into golden-replay test data.
type Schedule struct {
	Name  string `json:"name"`
	Rules []Rule `json:"rules"`
}

// Validate checks every rule and rejects overlapping same-kind windows.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("fault: nil schedule")
	}
	byKind := make(map[Kind][]Rule)
	for i, r := range s.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("fault: rule %d: %w", i, err)
		}
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	for kind, rules := range byKind {
		sort.Slice(rules, func(i, j int) bool { return rules[i].From < rules[j].From })
		for i := 1; i < len(rules); i++ {
			for j := 0; j < i; j++ {
				if rulesOverlap(rules[j], rules[i]) {
					return fmt.Errorf("fault: %s rules have overlapping windows ([%d,%d) and [%d,%d))",
						kind, rules[j].From, rules[j].To, rules[i].From, rules[i].To)
				}
			}
		}
	}
	return nil
}

// rulesOverlap reports whether two same-kind rules can both cover one
// (session, virtual-time) point: their session windows intersect AND
// their virtual windows intersect. The replay contract needs exactly one
// arming decision per (kind, session, time), so Validate rejects any such
// pair; disjoint virtual windows legitimately share a session range.
func rulesOverlap(a, b Rule) bool {
	aFrom, aTo := a.window()
	bFrom, bTo := b.window()
	if aFrom >= bTo || bFrom >= aTo {
		return false
	}
	avFrom, avTo := a.virtualWindow()
	bvFrom, bvTo := b.virtualWindow()
	return avFrom < bvTo && bvFrom < avTo
}

// ParseSchedule decodes and validates a JSON fault schedule.
func ParseSchedule(data []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSchedule reads and parses a schedule file.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: reading schedule: %w", err)
	}
	return ParseSchedule(data)
}

// Scaled returns a copy with every arming probability multiplied by
// intensity (clamped to 1). Intensity 0 disables every rule; 1 returns
// the schedule unchanged; the chaos sweep uses the ramp in between.
func (s *Schedule) Scaled(intensity float64) (*Schedule, error) {
	if math.IsNaN(intensity) || math.IsInf(intensity, 0) || intensity < 0 {
		return nil, fmt.Errorf("fault: intensity %v must be finite and non-negative", intensity)
	}
	out := &Schedule{Name: fmt.Sprintf("%s@%.2f", s.Name, intensity), Rules: make([]Rule, len(s.Rules))}
	copy(out.Rules, s.Rules)
	for i := range out.Rules {
		p := out.Rules[i].Prob * intensity
		if p > 1 {
			p = 1
		}
		out.Rules[i].Prob = p
	}
	return out, nil
}

// DefaultChaosSchedule is the builtin hostile-world mix: bursty in-band
// jamming, NLOS-like SNR collapse, flaky Bluetooth, congested radio
// latencies, lossy control messaging (the inert msg-* kinds, kept for
// their arming draws), a thermally-throttled watch, and
// occasional admission pressure. At full intensity roughly half the
// sessions see at least one fault; the chaos sweep scales it from 0 up.
func DefaultChaosSchedule() *Schedule {
	return &Schedule{
		Name: "builtin-chaos",
		Rules: []Rule{
			{Kind: KindAcousticBurst, Prob: 0.35, BurstMS: 250, BurstSPL: 82},
			{Kind: KindSNRCollapse, Prob: 0.35, SNRDropDB: 28},
			{Kind: KindLinkDrop, Prob: 0.30, OpProb: 0.55},
			{Kind: KindLatencySpike, Prob: 0.25, LatencyMult: 25, ExtraMS: 400},
			{Kind: KindMsgLoss, Prob: 0.15, OpProb: 0.3},
			{Kind: KindMsgDup, Prob: 0.10, OpProb: 0.3},
			{Kind: KindMsgReorder, Prob: 0.10, OpProb: 0.3},
			{Kind: KindDeviceSlow, Prob: 0.20, SlowFactor: 6},
			{Kind: KindPoolExhaust, Prob: 0.04},
		},
	}
}
