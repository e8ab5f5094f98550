// Command benchdsp measures the old-vs-new DSP fast-path benchmark pairs
// (internal/dsp, internal/audio, internal/acoustic and internal/modem
// BenchCases) and writes the results to a JSON report. With -check it
// acts as the regression gate: the run fails if a pair misses its minimum
// speedup or a steady-state fast path allocates.
//
// Usage:
//
//	go run ./cmd/benchdsp -out BENCH_dsp.json -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/dsp"
	"wearlock/internal/modem"
)

type caseReport struct {
	Name       string  `json:"name"`
	OldNsPerOp float64 `json:"old_ns_per_op"`
	NewNsPerOp float64 `json:"new_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	OldAllocs  int64   `json:"old_allocs_per_op"`
	NewAllocs  int64   `json:"new_allocs_per_op"`
	OldBytes   int64   `json:"old_bytes_per_op"`
	NewBytes   int64   `json:"new_bytes_per_op"`
	MinSpeedup float64 `json:"min_speedup,omitempty"`
	ZeroAlloc  bool    `json:"require_zero_alloc_new"`
}

type report struct {
	Description string       `json:"description"`
	Cases       []caseReport `json:"cases"`
}

// unified view over the dsp and modem packages' identical BenchCase shapes.
type benchCase struct {
	name                string
	minSpeedup          float64
	requireZeroAllocNew bool
	old, new            func() error
}

func collectCases() ([]benchCase, error) {
	var out []benchCase
	dspCases, err := dsp.BenchCases()
	if err != nil {
		return nil, fmt.Errorf("dsp cases: %w", err)
	}
	audioCases, err := audio.BenchCases()
	if err != nil {
		return nil, fmt.Errorf("audio cases: %w", err)
	}
	acousticCases, err := acoustic.BenchCases()
	if err != nil {
		return nil, fmt.Errorf("acoustic cases: %w", err)
	}
	for _, c := range slices.Concat(dspCases, audioCases, acousticCases) {
		out = append(out, benchCase{c.Name, c.MinSpeedup, c.RequireZeroAllocNew, c.Old, c.New})
	}
	modemCases, err := modem.BenchCases()
	if err != nil {
		return nil, fmt.Errorf("modem cases: %w", err)
	}
	for _, c := range modemCases {
		out = append(out, benchCase{c.Name, c.MinSpeedup, c.RequireZeroAllocNew, c.Old, c.New})
	}
	return out, nil
}

// Each pair is timed over rounds back-to-back windows of about
// roundTime per side, alternating which side runs first, and gated on
// the median per-round old/new ratio: drift on a shared host then moves
// both sides of a round, where one long run per side charged it all to
// whichever side it landed on.
const (
	rounds    = 21
	roundTime = 50 * time.Millisecond
)

// sample runs fn n times after a GC and returns ns, heap allocations
// and bytes per call.
func sample(fn func() error, n int) (ns float64, allocs, bytes int64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n && err == nil; i++ {
		err = fn()
	}
	ns = float64(time.Since(start).Nanoseconds()) / float64(n)
	runtime.ReadMemStats(&after)
	return ns, int64((after.Mallocs - before.Mallocs) / uint64(n)), int64((after.TotalAlloc - before.TotalAlloc) / uint64(n)), err
}

// calibrate warms fn's scratch and caches, so steady state is what gets
// measured, and returns the call count that runs about roundTime with
// its steady-state allocations and bytes per call.
func calibrate(fn func() error) (n int, allocs, bytes int64, err error) {
	if err := fn(); err != nil {
		return 0, 0, 0, err
	}
	for n = 1; ; n *= 2 {
		ns, allocs, bytes, err := sample(fn, n)
		if err != nil || ns*float64(n) >= float64(roundTime/4) {
			return max(1, int(float64(roundTime)/ns)), allocs, bytes, err
		}
	}
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// measurePair times one old/new pair over interleaved rounds.
func measurePair(c benchCase) (caseReport, error) {
	cr := caseReport{Name: c.name, MinSpeedup: c.minSpeedup, ZeroAlloc: c.requireZeroAllocNew}
	nOld, oldAllocs, oldBytes, errOld := calibrate(c.old)
	nNew, newAllocs, newBytes, errNew := calibrate(c.new)
	olds, news, ratios := make([]float64, rounds), make([]float64, rounds), make([]float64, rounds)
	for r := 0; r < rounds && errOld == nil && errNew == nil; r++ {
		if r%2 == 0 {
			olds[r], _, _, errOld = sample(c.old, nOld)
			news[r], _, _, errNew = sample(c.new, nNew)
		} else {
			news[r], _, _, errNew = sample(c.new, nNew)
			olds[r], _, _, errOld = sample(c.old, nOld)
		}
		ratios[r] = olds[r] / news[r]
	}
	if errOld != nil {
		return cr, fmt.Errorf("old: %w", errOld)
	}
	if errNew != nil {
		return cr, fmt.Errorf("new: %w", errNew)
	}
	cr.OldNsPerOp, cr.NewNsPerOp, cr.Speedup = median(olds), median(news), median(ratios)
	cr.OldAllocs, cr.OldBytes, cr.NewAllocs, cr.NewBytes = oldAllocs, oldBytes, newAllocs, newBytes
	return cr, nil
}

func main() {
	out := flag.String("out", "BENCH_dsp.json", "path of the JSON report")
	check := flag.Bool("check", false, "fail when a pair misses its speedup floor or allocates on the fast path")
	flag.Parse()

	cases, err := collectCases()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdsp: %v\n", err)
		os.Exit(1)
	}

	rep := report{
		Description: fmt.Sprintf("old-vs-new DSP fast-path benchmarks: %d rounds time old and new back to back (~%v each, "+
			"alternating which runs first); ns/op is each side's median and speedup the median per-round old/new ratio", rounds, roundTime),
	}
	failed := false
	for _, c := range cases {
		cr, err := measurePair(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdsp: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		rep.Cases = append(rep.Cases, cr)
		status := "ok"
		if *check {
			if c.minSpeedup > 0 && cr.Speedup < c.minSpeedup {
				status = fmt.Sprintf("FAIL speedup %.2fx < %.2fx", cr.Speedup, c.minSpeedup)
				failed = true
			}
			if c.requireZeroAllocNew && cr.NewAllocs != 0 {
				status = fmt.Sprintf("FAIL %d allocs/op on fast path", cr.NewAllocs)
				failed = true
			}
		}
		fmt.Printf("%-32s old %10.0f ns/op %3d allocs  new %10.0f ns/op %3d allocs  %5.2fx  %s\n",
			c.name, cr.OldNsPerOp, cr.OldAllocs, cr.NewNsPerOp, cr.NewAllocs, cr.Speedup, status)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdsp: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchdsp: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if failed {
		fmt.Fprintln(os.Stderr, "benchdsp: regression gate failed")
		os.Exit(1)
	}
}
