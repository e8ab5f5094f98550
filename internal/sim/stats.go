package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats accumulates scalar observations (BERs, SNRs, latencies) and
// reports order-independent summary statistics. The zero value is ready
// to use. Stats is not safe for concurrent mutation; collect per-job
// values through Runner results and fold them in submission order.
type Stats struct {
	xs []float64
}

// Add records one observation.
func (s *Stats) Add(v float64) { s.xs = append(s.xs, v) }

// Merge folds another collector's observations into s.
func (s *Stats) Merge(o *Stats) {
	if o != nil {
		s.xs = append(s.xs, o.xs...)
	}
}

// Count reports the number of observations.
func (s *Stats) Count() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Stats) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 with none.
func (s *Stats) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or 0 with none.
func (s *Stats) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0-100) with linear
// interpolation between order statistics, or 0 with no observations.
func (s *Stats) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary is a rendered snapshot of a Stats collector.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P90, P99  float64
}

// Summarize computes the standard summary (mean, min/max, p50/p90/p99).
func (s *Stats) Summarize() Summary {
	return Summary{
		Count: s.Count(),
		Mean:  s.Mean(),
		Min:   s.Min(),
		Max:   s.Max(),
		P50:   s.Percentile(50),
		P90:   s.Percentile(90),
		P99:   s.Percentile(99),
	}
}

// String implements fmt.Stringer.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		sm.Count, sm.Mean, sm.Min, sm.P50, sm.P90, sm.P99, sm.Max)
}

// Aggregator collects named metric streams from a batch — e.g. "ber",
// "snr_db", "latency_s" — preserving first-observation order for stable
// rendering. Like Stats it is meant to be fed in result-index order after
// Runner.Run returns.
type Aggregator struct {
	metrics map[string]*Stats
	order   []string
}

// NewAggregator returns an empty collector.
func NewAggregator() *Aggregator {
	return &Aggregator{metrics: make(map[string]*Stats)}
}

// Observe records one value under a metric name.
func (a *Aggregator) Observe(metric string, v float64) {
	s, ok := a.metrics[metric]
	if !ok {
		s = &Stats{}
		a.metrics[metric] = s
		a.order = append(a.order, metric)
	}
	s.Add(v)
}

// Stats returns the collector for a metric, or nil if never observed.
func (a *Aggregator) Stats(metric string) *Stats { return a.metrics[metric] }

// Metrics lists metric names in first-observation order.
func (a *Aggregator) Metrics() []string { return append([]string(nil), a.order...) }

// String renders every metric's summary, one line each.
func (a *Aggregator) String() string {
	var b strings.Builder
	for _, name := range a.order {
		fmt.Fprintf(&b, "%-12s %s\n", name, a.metrics[name].Summarize())
	}
	return b.String()
}
