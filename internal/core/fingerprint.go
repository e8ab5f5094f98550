package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Fingerprint renders the complete Result — outcome, modem and filter
// diagnostics, every timeline step, every energy charge, and the
// resilience state — into one canonical string. Floats are emitted as
// IEEE-754 bit patterns, so two equal fingerprints mean the results are
// bit-identical, not merely close: this is the equivalence artifact the
// virtual-time engine is proven against, session by session.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	f := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	fmt.Fprintf(&b, "outcome=%d unlocked=%t detail=%q mode=%d\n", int(r.Outcome), r.Unlocked, r.Detail, int(r.Mode))
	fmt.Fprintf(&b, "ber=%s psnr=%s ebn0=%s spl=%s chans=%v\n", f(r.BER), f(r.PSNRdB), f(r.EbN0dB), f(r.VolumeSPL), r.DataChannels)
	fmt.Fprintf(&b, "motion=%s decision=%v noise=%s nlos=%t spread=%d dist=%s\n",
		f(r.MotionScore), r.MotionDecision, f(r.NoiseSimilarity), r.NLOSDetected, int64(r.DelaySpread), f(r.EstimatedDistance))
	fmt.Fprintf(&b, "attempts=%d degradation=%d\n", r.Attempts, int(r.Degradation))
	if r.Timeline != nil {
		for _, s := range r.Timeline.steps {
			fmt.Fprintf(&b, "step %q kind=%d dev=%q dur=%d\n", s.Name, int(s.Kind), s.Device, int64(s.Duration))
		}
	}
	if r.Energy != nil {
		r.Energy.fingerprint(&b)
	}
	return b.String()
}

// fingerprint renders one line per charged device, in name order, with
// both sums as IEEE-754 bit patterns.
func (e *EnergyLedger) fingerprint(b *strings.Builder) {
	devices := append([]deviceEnergy(nil), e.devices...)
	sort.Slice(devices, func(i, j int) bool { return devices[i].name < devices[j].name })
	for _, d := range devices {
		fmt.Fprintf(b, "energy %q compute=%016x radio=%016x\n", d.name, math.Float64bits(d.compute), math.Float64bits(d.radio))
	}
}
