package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wearlock/internal/scenario/catalog"
	"wearlock/internal/service"
)

// specPath is BENCHMARK.json, seen from this package's directory.
const specPath = "../BENCHMARK.json"

// TestSmoke runs every workload briefly with tracing through the command
// line, and checks that every metric BENCHMARK.json names comes out with
// its unit, that the spans file parses, and that the spans form one
// well-nested tree per request.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, spansPath := filepath.Join(dir, w.name+".json"), filepath.Join(dir, w.name+".jsonl")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "0.6", "-trace", "1",
				"-benchmark", specPath, "-workdir", dir, "-out", out, "-spans", spansPath}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}

			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last lastLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if !last.Correct || last.Attempted < 1 {
				t.Fatalf("last line %+v", last)
			}
			requireMetrics(t, last.Metrics, spec.PerLayer)

			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 || rep.Envelope.GoVersion == "" || rep.Envelope.NumCPU < 1 {
				t.Fatalf("result file: %+v", rep.Envelope)
			}
			requireMetrics(t, rep.Results[0].Metrics, spec.EndToEnd)

			spans := readSpans(t, spansPath)
			if err := checkSpans(spans); err != nil {
				t.Fatal(err)
			}
			roots := map[int64]int{}
			for _, s := range spans {
				if s.Name == "bench.request" {
					roots[s.Trace]++
				}
			}
			for _, s := range spans {
				if s.Name == "http.roundtrip" && roots[s.Trace] != 1 {
					t.Fatalf("trace %d has %d bench.request roots", s.Trace, roots[s.Trace])
				}
			}
			if len(roots) < last.Attempted {
				t.Fatalf("%d request traces for %d requests", len(roots), last.Attempted)
			}
		})
	}
}

func requireMetrics(t *testing.T, got metricSet, want []metricSpec) {
	t.Helper()
	for _, ms := range want {
		m, ok := got[ms.Name]
		if !ok {
			t.Errorf("metric %s missing", ms.Name)
			continue
		}
		if m.Unit != ms.Unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s = %v %s, want unit %s", ms.Name, m.Value, m.Unit, ms.Unit)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	return spans
}

// TestGateBites moves one observed session of a sampled device off by
// the smallest representable step — its protocol delay — and requires the
// run to fail its check, while the untampered run passes.
func TestGateBites(t *testing.T) {
	w, err := workloadByName("mix-closed")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := newRunState(w, runConfig{seed: 3, dur: durationsFor(1), dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.client.CloseIdleConnections()
	checkErr, err := r.execute(dir)
	if err != nil || checkErr != nil {
		t.Fatal(err, checkErr)
	}
	sampled := map[int]bool{}
	for _, d := range r.sampled {
		sampled[d] = true
	}
	var victim *observation
	for _, o := range r.obs {
		if sampled[o.device] && !o.failed() {
			victim = o
			break
		}
	}
	if victim == nil {
		t.Fatal("no sampled device ran a session")
	}
	delay := victim.view.UnlockDelayMS
	victim.view.UnlockDelayMS = math.Nextafter(delay, math.Inf(1))
	if res, _ := r.finish(nil, dir); res.Correct || !strings.Contains(res.Error, "unlock_delay_ms") {
		t.Fatalf("tampered session passed the check: %+v", res)
	}
	victim.view.UnlockDelayMS = delay
	if res, _ := r.finish(nil, dir); !res.Correct {
		t.Fatalf("untampered run failed: %s", res.Error)
	}
}

// TestSampleDevicesIndependentOfCPUs requires the replay to check the
// same number of distinct devices whatever the sender count, each owned
// by the sender it was dealt to.
func TestSampleDevicesIndependentOfCPUs(t *testing.T) {
	mix, err := service.ParseMix(lightMix, catalog.ServiceScenarios())
	if err != nil {
		t.Fatal(err)
	}
	for senders := 1; senders <= 9; senders++ {
		got := sampleDevices(5, mix, 64, senders)
		seen, per := map[int]bool{}, make([]int, senders)
		for _, d := range got {
			seen[d] = true
			per[d%senders]++
		}
		if len(got) != sampledDevices || len(seen) != sampledDevices {
			t.Fatalf("%d senders: sampled %v, want %d distinct devices", senders, got, sampledDevices)
		}
		for k, n := range per {
			want := sampledDevices / senders
			if k < sampledDevices%senders {
				want++
			}
			if n != want {
				t.Errorf("%d senders: sender %d owns %d sampled devices, want %d", senders, k, n, want)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestClassify(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 10.2, 9.9, 10}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{[]float64{10.3, 10.4, 10.2, 10.5, 10.3}, "within bound"},
		{[]float64{12, 12.1, 12.2, 11.9, 12}, "regressed"},
		{[]float64{8, 14, 10, 6, 13}, "unresolved"},
	} {
		if got, _, _ := classify(lower, steady, tc.head); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.head, got, tc.want)
		}
	}
}
