// Command bench is the unlock service's benchmark. It boots wearlockd in
// process through its public constructors (standalone, durable, or a
// gateway in front of a durable primary and its warm standby), each
// behind a real loopback HTTP server; drives seeded unlock traffic
// through the public HTTP API from one sender per CPU; checks every
// output against a serial replay of the sampled devices; and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones. See
// README.md for the workloads, the metrics and how to compare runs.
//
//	bash bench/run.sh --workload mix-closed --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -runs 5 -out base.json
//	bash bench/run.sh -compare base.json head.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units and bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// envelope describes where and how a result file was measured.
type envelope struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	GitSHA     string    `json:"git_sha"`
	Seed       int64     `json:"seed"`
	Runs       int       `json:"runs"`
	Date       string    `json:"date"`
	Durations  durations `json:"durations"`
}

// report is the one schema every result file uses.
type report struct {
	Envelope envelope     `json:"envelope"`
	Results  []*result    `json:"results"`
	Summary  []summaryRow `json:"summary,omitempty"`
}

// summaryRow is one metric's median and quartiles over a file's runs.
type summaryRow struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: mix-closed, mix-open, durable-light or replicated-light (empty: all four)")
		seed     = fs.Int64("seed", 1, "seed of the request stream and of the daemon")
		seconds  = fs.Float64("seconds", 30, "measured seconds per workload; every phase length derives from it")
		trace    = fs.Int("trace", 0, "1: record spans and report the per-layer metrics; with every workload, also the untraced run and the tracing overhead")
		spansOut = fs.String("spans", "", "with -trace 1: write the spans of the last run here as JSON lines")
		out      = fs.String("out", "", "write every result, with its envelope, to this JSON file")
		runs     = fs.Int("runs", 1, "run this many times with seeds seed, seed+1, ...; prints each metric's median and quartiles")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments (base, head) under BENCHMARK.json's bounds")
		specPath = fs.String("benchmark", "BENCHMARK.json", "the benchmark definition: metric names, units and bounds")
		workDir  = fs.String("workdir", ".bench_build", "directory for the daemons' state")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		return compareFiles(spec, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *runs < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rc := runConfig{dur: durationsFor(*seconds), dir: *workDir}
	// The whole suite under -trace 1 also runs each workload untraced, so
	// the file carries both views and the tracing overhead.
	both := *trace == 1 && len(selected) > 1

	var results []*result
	var spans []span
	for i := 0; i < *runs; i++ {
		rc.seed = *seed + int64(i)
		for _, w := range selected {
			var plain *result
			if *trace == 0 || both {
				rc.traced = false
				if plain, _, err = runWorkload(w, rc); err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				results = append(results, plain)
				printResult(stderr, plain)
			}
			if *trace == 1 {
				rc.traced = true
				traced, sp, err := runWorkload(w, rc)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if plain != nil && plain.Correct && traced.Correct {
					traced.Metrics.set("bench.trace_overhead_frac", "ratio",
						1-traced.Metrics["sessions_per_s"].Value/plain.Metrics["sessions_per_s"].Value)
				}
				results = append(results, traced)
				printResult(stderr, traced)
				spans = sp
			}
		}
	}

	summary := summarize(results)
	if *runs > 1 {
		printSummary(stdout, summary)
	}
	if *out != "" {
		rep := report{
			Envelope: envelope{
				GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				GitSHA: gitSHA(), Seed: *seed, Runs: *runs, Date: time.Now().UTC().Format(time.RFC3339),
				Durations: rc.dur,
			},
			Results: results,
			Summary: summary,
		}
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" && spans != nil {
		if err := writeSpans(*spansOut, spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	names := spec.EndToEnd
	if *trace == 1 {
		names = spec.PerLayer
	}
	line, err := resultLine(results, names, *trace == 1, len(selected) > 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !line.Correct {
		return 1
	}
	return 0
}

// lastLine is the last line of standard output.
type lastLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (l lastLine) String() string {
	data, _ := json.Marshal(l) // plain numbers and strings; cannot fail
	return string(data)
}

// resultLine reports exactly the named metrics of the results of one
// kind (traced or not): the median over runs, keyed by the bare name for
// one workload and by "workload/name" for several.
func resultLine(results []*result, names []metricSpec, traced, prefix bool) (lastLine, error) {
	l := lastLine{Correct: true, Metrics: metricSet{}}
	values, units := map[string][]float64{}, map[string]string{}
	for _, r := range results {
		if r.Traced != traced {
			continue
		}
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		l.Correct = l.Correct && r.Correct
		if !r.Correct {
			continue
		}
		for _, ms := range names {
			m, ok := r.Metrics[ms.Name]
			if !ok {
				return lastLine{}, fmt.Errorf("%s: metric %s was not measured", r.Workload, ms.Name)
			}
			if m.Unit != ms.Unit {
				return lastLine{}, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.Workload, ms.Name, m.Unit, ms.Unit)
			}
			key := ms.Name
			if prefix {
				key = r.Workload + "/" + ms.Name
			}
			values[key] = append(values[key], m.Value)
			units[key] = m.Unit
		}
	}
	for key, xs := range values {
		_, med, _ := quartiles(xs)
		l.Metrics.set(key, units[key], med)
	}
	return l, nil
}

// summarize gives each (workload, traced, metric) its quartiles over runs.
func summarize(results []*result) []summaryRow {
	type key struct {
		workload string
		traced   bool
		metric   string
	}
	values := map[key][]float64{}
	units := map[key]string{}
	for _, r := range results {
		for name, m := range r.Metrics {
			k := key{r.Workload, r.Traced, name}
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	rows := make([]summaryRow, 0, len(values))
	for k, xs := range values {
		q1, q2, q3 := quartiles(xs)
		rows = append(rows, summaryRow{Workload: k.workload, Traced: k.traced, Metric: k.metric,
			Unit: units[k], Runs: len(xs), Q1: q1, Median: q2, Q3: q3})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Traced != b.Traced {
			return !a.Traced
		}
		return a.Metric < b.Metric
	})
	return rows
}

func printResult(w io.Writer, r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Fprintf(w, "  check failed: %s\n", r.Error)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.SelfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  self %-33s %14.4f ms (p50)\n", n, r.SelfMS[n])
	}
}

func printSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "%-17s %-8s %-38s %5s %14s %14s %14s %8s\n", "workload", "run", "metric", "runs", "q1", "median", "q3", "spread")
	for _, r := range rows {
		kind := "untraced"
		if r.Traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "%-17s %-8s %-38s %5d %14.4f %14.4f %14.4f %7.2f%% %s\n", r.Workload, kind, r.Metric,
			r.Runs, r.Q1, r.Median, r.Q3, 100*ratio(r.Q3-r.Q1, r.Median), r.Unit)
	}
}

// compareFiles labels every (end-to-end metric, workload) pair of two
// result files: within bound, regressed (head's median worse than base's
// by more than the bound), or unresolved (either side's quartile spread
// exceeds the bound, unless every head run beats every base run). It
// exits 1 when anything regressed.
func compareFiles(spec *benchSpec, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: base.json head.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	values := func(rep report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rep.Results {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced && r.Correct {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	regressed := false
	fmt.Fprintf(stdout, "%-24s %-17s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "base", "head", "change", "spread", "bound", "verdict")
	for _, ms := range spec.EndToEnd {
		for _, w := range workloads {
			base, head := values(reps[0], w.name, ms.Name), values(reps[1], w.name, ms.Name)
			if len(base) == 0 || len(head) == 0 {
				continue
			}
			verdict, change, spread := classify(ms, base, head)
			regressed = regressed || verdict == "regressed"
			_, mb, _ := quartiles(base)
			_, mh, _ := quartiles(head)
			fmt.Fprintf(stdout, "%-24s %-17s %12.4f %12.4f %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				ms.Name, w.name, mb, mh, 100*change, 100*spread, 100*ms.Bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// classify compares head's runs with base's for one metric. change is the
// signed relative move of the median, positive when head is worse.
func classify(ms metricSpec, base, head []float64) (verdict string, change, spread float64) {
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	sign := 1.0
	if ms.Better == "higher" {
		sign = -1
	}
	change = sign * ratio(hmed-bmed, bmed)
	spread = math.Max(ratio(bq3-bq1, bmed), ratio(hq3-hq1, hmed))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > ms.Bound && !allBetter:
		return "unresolved", change, spread
	case change > ms.Bound:
		return "regressed", change, spread
	}
	return "within bound", change, spread
}

// gitSHA names the measured commit, or "unknown" outside a git checkout.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
