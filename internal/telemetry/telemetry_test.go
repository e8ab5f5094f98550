package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "Test counter.")
	g := r.Gauge("test_depth", "Test gauge.")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge %d, want 5", g.Value())
	}
	out := r.String()
	for _, want := range []string{
		"# HELP test_total Test counter.",
		"# TYPE test_total counter",
		"test_total 5",
		"# TYPE test_depth gauge",
		"test_depth 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecSortedExport(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("outcomes_total", "Outcomes.", "outcome")
	v.With("unlocked").Add(3)
	v.With("aborted").Inc()
	v.With("unlocked").Inc()
	if got := v.Values(); got["unlocked"] != 4 || got["aborted"] != 1 {
		t.Errorf("values %v", got)
	}
	out := r.String()
	a := strings.Index(out, `outcomes_total{outcome="aborted"} 1`)
	u := strings.Index(out, `outcomes_total{outcome="unlocked"} 4`)
	if a < 0 || u < 0 || a > u {
		t.Errorf("label values missing or unsorted:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("sum %f, want 56.05", h.Sum())
	}
	out := r.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

// A histogram family renders each child's samples with its label ahead
// of the bound, children in sorted label order under one HELP/TYPE.
func TestHistogramVecLabelledExport(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("hop_seconds", "Hop.", "shard", []float64{1})
	v.With("s1").Observe(2)
	v.With("s0").Observe(0.5)
	v.With("s0").Observe(3)
	want := `# HELP hop_seconds Hop.
# TYPE hop_seconds histogram
hop_seconds_bucket{shard="s0",le="1"} 1
hop_seconds_bucket{shard="s0",le="+Inf"} 2
hop_seconds_sum{shard="s0"} 3.5
hop_seconds_count{shard="s0"} 2
hop_seconds_bucket{shard="s1",le="1"} 0
hop_seconds_bucket{shard="s1",le="+Inf"} 1
hop_seconds_sum{shard="s1"} 2
hop_seconds_count{shard="s1"} 1
`
	if got := r.String(); got != want {
		t.Errorf("export:\n%s\nwant:\n%s", got, want)
	}
}

// Boundary values land in the bucket whose bound equals them (le is <=).
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "Boundary.", []float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	out := r.String()
	if !strings.Contains(out, `b_bucket{le="1"} 1`) || !strings.Contains(out, `b_bucket{le="2"} 2`) {
		t.Errorf("boundary observations misplaced:\n%s", out)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Errorf("exp[%d] = %g, want %g", i, exp[i], want[i])
		}
	}
	lin := LinearBuckets(0, 0.05, 3)
	if lin[0] != 0 || lin[1] != 0.05 || lin[2] != 0.1 {
		t.Errorf("linear buckets %v", lin)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// Concurrent updates must be race-free and lose no increments.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "k")
	h := r.Histogram("h_seconds", "", []float64{1})
	g := r.Gauge("g", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(0.5)
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	const want = workers * perWorker
	if c.Value() != want || v.With("a").Value() != want || h.Count() != want || g.Value() != want {
		t.Errorf("lost updates: counter=%d vec=%d hist=%d gauge=%d, want %d",
			c.Value(), v.With("a").Value(), h.Count(), g.Value(), want)
	}
	if math.Abs(h.Sum()-0.5*want) > 1e-6 {
		t.Errorf("histogram sum %f, want %f", h.Sum(), 0.5*float64(want))
	}
}

// TestInfoRendersConstantGauge pins the build-info idiom: constant 1,
// labels sorted by key, gauge-typed, stable across writes.
func TestInfoRendersConstantGauge(t *testing.T) {
	r := NewRegistry()
	r.Info("app_build_info", "Build metadata.", map[string]string{
		"shard_id":   "s3",
		"go_version": "go.test",
	})
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	want := `app_build_info{go_version="go.test",shard_id="s3"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "# TYPE app_build_info gauge") {
		t.Errorf("info metric not typed as gauge:\n%s", out)
	}
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("info exposition not stable across writes")
	}
}

// TestInfoNoLabels checks the degenerate no-label form.
func TestInfoNoLabels(t *testing.T) {
	r := NewRegistry()
	r.Info("bare_info", "No labels.", nil)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "bare_info 1") {
		t.Errorf("exposition missing bare sample:\n%s", b.String())
	}
}

// TestInfoDuplicatePanics keeps Info under the registry's single-name
// invariant.
func TestInfoDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Info("dup_info", "x", nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Info name did not panic")
		}
	}()
	r.Info("dup_info", "x", nil)
}
