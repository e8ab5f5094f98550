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
	"slices"
	"testing"

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

func measure(fn func() error) (testing.BenchmarkResult, error) {
	// Warm scratch buffers and caches so steady state is what's measured.
	if err := fn(); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var innerErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				innerErr = err
				b.FailNow()
			}
		}
	})
	return res, innerErr
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
		Description: "old-vs-new DSP fast-path benchmarks (ns/op via testing.Benchmark); speedup = old/new",
	}
	failed := false
	for _, c := range cases {
		oldRes, err := measure(c.old)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdsp: %s/old: %v\n", c.name, err)
			os.Exit(1)
		}
		newRes, err := measure(c.new)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdsp: %s/new: %v\n", c.name, err)
			os.Exit(1)
		}
		oldNs := float64(oldRes.T.Nanoseconds()) / float64(oldRes.N)
		newNs := float64(newRes.T.Nanoseconds()) / float64(newRes.N)
		cr := caseReport{
			Name:       c.name,
			OldNsPerOp: oldNs,
			NewNsPerOp: newNs,
			Speedup:    oldNs / newNs,
			OldAllocs:  oldRes.AllocsPerOp(),
			NewAllocs:  newRes.AllocsPerOp(),
			OldBytes:   oldRes.AllocedBytesPerOp(),
			NewBytes:   newRes.AllocedBytesPerOp(),
			MinSpeedup: c.minSpeedup,
			ZeroAlloc:  c.requireZeroAllocNew,
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
			c.name, oldNs, cr.OldAllocs, newNs, cr.NewAllocs, cr.Speedup, status)
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
