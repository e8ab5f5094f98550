package fault

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzFaultSchedule throws arbitrary bytes at the schedule parser and
// checks the invariants chaos runs depend on: parsing never panics, an
// accepted schedule contains only physical rules (finite non-negative
// parameters, probabilities in [0, 1], non-empty non-overlapping
// windows), and every accepted schedule survives scaling and per-session
// arming without panicking.
func FuzzFaultSchedule(f *testing.F) {
	if data, err := json.Marshal(DefaultChaosSchedule()); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","rules":[{"kind":"link-drop","prob":0.5,"op_prob":0.9}]}`))
	f.Add([]byte(`{"name":"bad","rules":[{"kind":"acoustic-burst","prob":2}]}`))
	f.Add([]byte(`{"name":"nan","rules":[{"kind":"device-slow","prob":1e999}]}`))
	f.Add([]byte(`{"name":"window","rules":[{"kind":"msg-loss","prob":1,"from":8,"to":4}]}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchedule(data)
		if err != nil {
			return
		}
		for i, r := range s.Rules {
			if !r.Kind.Valid() {
				t.Fatalf("rule %d: unknown kind %q accepted", i, r.Kind)
			}
			if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("rule %d: prob %v accepted", i, r.Prob)
			}
			for _, v := range []float64{r.SNRDropDB, r.BurstMS, r.BurstSPL, r.OpProb, r.LatencyMult, r.ExtraMS, r.SlowFactor} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("rule %d: non-physical parameter %v accepted", i, v)
				}
			}
			if r.From < 0 {
				t.Fatalf("rule %d: negative window start %d accepted", i, r.From)
			}
			if r.To != 0 && r.To <= r.From {
				t.Fatalf("rule %d: empty window [%d, %d) accepted", i, r.From, r.To)
			}
		}
		// Same-kind windows must not overlap (one arming decision per
		// (kind, session) is the replay contract).
		seen := map[Kind][][2]int64{}
		for _, r := range s.Rules {
			from, to := r.From, r.To
			if to == 0 {
				to = math.MaxInt64
			}
			for _, w := range seen[r.Kind] {
				if from < w[1] && w[0] < to {
					t.Fatalf("overlapping %s windows accepted", r.Kind)
				}
			}
			seen[r.Kind] = append(seen[r.Kind], [2]int64{from, to})
		}
		// An accepted schedule must be usable end to end.
		for _, intensity := range []float64{0, 0.5, 1, 3} {
			scaled, err := s.Scaled(intensity)
			if err != nil {
				t.Fatalf("accepted schedule failed Scaled(%v): %v", intensity, err)
			}
			if err := scaled.Validate(); err != nil {
				t.Fatalf("Scaled(%v) produced an invalid schedule: %v", intensity, err)
			}
		}
		for session := int64(0); session < 4; session++ {
			sf := ForSession(s, 42, session)
			sf.LinkFault()
			sf.ExtraLossDB()
			sf.ComputeSlowdown()
			sf.PoolExhausted()
		}
	})
}
