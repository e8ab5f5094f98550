// Package telemetry is the in-process metrics registry behind wearlockd's
// /metrics endpoint. It provides the three Prometheus primitives the
// service layer needs — counters (optionally split over one label),
// gauges, and fixed-bucket histograms — with lock-free hot paths and a
// deterministic text-format export: metrics render in registration order
// and label values in sorted order, so two scrapes of an idle registry
// are byte-identical.
//
// The dependency points the other way from the usual client library:
// nothing here imports the protocol or simulation packages, and the
// export format is the Prometheus text exposition format, so any scraper
// (or a test doing string matching) can consume it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metrics and renders them in the
// Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]struct{}
}

// metric is anything the registry can export.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string
	writeSamples(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// register adds a metric, panicking on duplicate names: metric names are
// program constants, and a collision is a programming error no caller
// has a sensible recovery for.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[m.metricName()]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.metricName()))
	}
	r.names[m.metricName()] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// CounterVec registers and returns a counter family split over one label
// dimension (e.g. session outcome).
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// Gauge registers and returns an instantaneous integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Histogram registers and returns a histogram over the given ascending
// bucket upper bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, help, buckets)
	r.register(h)
	return h
}

// HistogramVec registers and returns a histogram family split over one
// label dimension, every child over the same buckets.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{proto: newHistogram(name, help, buckets), label: label, children: make(map[string]*Histogram)}
	r.register(v)
	return v
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
	}
	return &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]float64(nil), buckets...),
		buckets: make([]atomic.Uint64, len(buckets)+1),
	}
}

// WritePrometheus renders every registered metric in the text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n", m.metricName(), m.metricHelp())
		fmt.Fprintf(w, "# TYPE %s %s\n", m.metricName(), m.metricType())
		m.writeSamples(w)
	}
}

// String renders the registry to a string (convenience for tests).
func (r *Registry) String() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// --- Counter ------------------------------------------------------------

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeSamples(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// --- CounterVec ---------------------------------------------------------

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct {
	name  string
	help  string
	label string

	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{name: v.name}
		v.children[value] = c
	}
	return c
}

// Values snapshots every child's count keyed by label value.
func (v *CounterVec) Values() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.children))
	for value, c := range v.children {
		out[value] = c.Value()
	}
	return out
}

func (v *CounterVec) metricName() string { return v.name }
func (v *CounterVec) metricHelp() string { return v.help }
func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) writeSamples(w io.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for value := range v.children {
		values = append(values, value)
	}
	sort.Strings(values)
	children := make([]*Counter, len(values))
	for i, value := range values {
		children[i] = v.children[value]
	}
	v.mu.Unlock()
	for i, value := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, value, children[i].Value())
	}
}

// --- Gauge --------------------------------------------------------------

// Gauge is an instantaneous integer value (queue depth, in-flight count).
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeSamples(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

// --- FloatGauge ---------------------------------------------------------

// FloatGauge is an instantaneous float value (e.g. a recovery duration in
// seconds). The value is stored as its IEEE-754 bit pattern in a uint64,
// keeping reads and writes lock-free.
type FloatGauge struct {
	name string
	help string
	bits atomic.Uint64
}

// FloatGauge registers and returns a float-valued gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) metricName() string { return g.name }
func (g *FloatGauge) metricHelp() string { return g.help }
func (g *FloatGauge) metricType() string { return "gauge" }
func (g *FloatGauge) writeSamples(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// --- Info ---------------------------------------------------------------

// Info is a constant gauge carrying identity labels and the value 1 —
// the Prometheus idiom for build/instance metadata (wearlockd_build_info
// with go_version and shard_id labels, joined onto other series by the
// scraper). Labels render sorted by key, so the sample line is stable.
type Info struct {
	name   string
	help   string
	labels []string // "key=quoted-value" pairs, sorted by key
}

// Info registers a constant metadata metric with the given label set.
func (r *Registry) Info(name, help string, labels map[string]string) *Info {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, 0, len(keys))
	for _, k := range keys {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	i := &Info{name: name, help: help, labels: pairs}
	r.register(i)
	return i
}

func (i *Info) metricName() string { return i.name }
func (i *Info) metricHelp() string { return i.help }
func (i *Info) metricType() string { return "gauge" }
func (i *Info) writeSamples(w io.Writer) {
	if len(i.labels) == 0 {
		fmt.Fprintf(w, "%s 1\n", i.name)
		return
	}
	fmt.Fprintf(w, "%s{%s} 1\n", i.name, strings.Join(i.labels, ","))
}

// --- Histogram ----------------------------------------------------------

// Histogram counts observations into fixed buckets. Observe is lock-free;
// the sum is accumulated with a CAS loop over the float's bit pattern.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	// buckets[i] counts observations <= bounds[i]; the last slot is +Inf.
	// Counts are per-bucket (non-cumulative) internally and summed into
	// the cumulative form Prometheus expects at export time.
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string       { return h.name }
func (h *Histogram) metricHelp() string       { return h.help }
func (h *Histogram) metricType() string       { return "histogram" }
func (h *Histogram) writeSamples(w io.Writer) { h.writeLabelled(w, "") }

// writeLabelled writes the samples with label (`name="value"`, or empty)
// ahead of the bucket bound.
func (h *Histogram) writeLabelled(w io.Writer, label string) {
	sep, tail := "", ""
	if label != "" {
		sep, tail = ",", "{"+label+"}"
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", h.name, label, sep, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.name, label, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, tail, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, tail, h.Count())
}

// --- HistogramVec -------------------------------------------------------

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	proto *Histogram // name, help and bounds; never observed
	label string

	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label value, creating
// it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.proto.name, "", v.proto.bounds)
		v.children[value] = h
	}
	return h
}

func (v *HistogramVec) metricName() string { return v.proto.name }
func (v *HistogramVec) metricHelp() string { return v.proto.help }
func (v *HistogramVec) metricType() string { return "histogram" }
func (v *HistogramVec) writeSamples(w io.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for value := range v.children {
		values = append(values, value)
	}
	sort.Strings(values)
	children := make([]*Histogram, len(values))
	for i, value := range values {
		children[i] = v.children[value]
	}
	v.mu.Unlock()
	for i, value := range values {
		children[i].writeLabelled(w, fmt.Sprintf("%s=%q", v.label, value))
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExponentialBuckets returns n bucket bounds starting at start and
// multiplying by factor — the standard shape for latency histograms.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets requires start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bucket bounds starting at start with the given
// step — the shape for bounded quantities like BER.
func LinearBuckets(start, step float64, n int) []float64 {
	if n < 1 || step <= 0 {
		panic("telemetry: LinearBuckets requires step > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
