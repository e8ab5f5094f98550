// Command benchsim times the parallelized figure sweeps serial vs
// parallel through the batch-simulation engine and writes the result to
// BENCH_sim.json, recording the capture environment alongside the
// numbers. The sweeps are bit-identical at every worker count (that is
// tested, not timed, in internal/experiments); this tool measures only
// wall clock.
//
// Usage:
//
//	benchsim [-out BENCH_sim.json] [-parallel 4] [-scale quick] [-seed 42] [-reps 3]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -cpuprofile the whole sweep runs under the CPU profiler; with
// -memprofile a heap profile is written after the sweeps finish. Inspect
// either with `go tool pprof [binary] <file>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"wearlock/internal/experiments"
	"wearlock/internal/scenario/catalog"
)

type timing struct {
	Figure     string  `json:"figure"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

type record struct {
	Date       string   `json:"date"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Workers    int      `json:"workers"`
	Scale      string   `json:"scale"`
	Seed       int64    `json:"seed"`
	Reps       int      `json:"reps"`
	Note       string   `json:"note"`
	Timings    []timing `json:"timings"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out      = flag.String("out", "BENCH_sim.json", "output path")
		parallel = flag.Int("parallel", 4, "worker count for the parallel runs")
		scale    = flag.String("scale", "quick", "sweep scale: quick|full")
		seed     = flag.Int64("seed", 42, "base seed")
		reps     = flag.Int("reps", 3, "repetitions per measurement (best run kept)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the sweeps to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sc := experiments.ScaleQuick
	if *scale == "full" {
		sc = experiments.ScaleFull
	}

	rec := record{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    *parallel,
		Scale:      *scale,
		Seed:       *seed,
		Reps:       *reps,
		Note: "Best-of-reps wall clock per figure sweep through sim.Runner. " +
			"Speedup requires free cores: on a single-core host (GOMAXPROCS=1) " +
			"the parallel path only demonstrates determinism, not speed.",
		Timings: []timing{},
	}

	// The figure sweeps ported onto the Runner.
	for _, name := range []string{"fig4", "fig5", "fig7", "fig8", "fig9", "fig10"} {
		serial, err := timeRun(name, sc, *seed, 1, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: %s serial: %v\n", name, err)
			return 1
		}
		par, err := timeRun(name, sc, *seed, *parallel, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: %s parallel: %v\n", name, err)
			return 1
		}
		t := timing{
			Figure:     name,
			SerialMS:   float64(serial.Microseconds()) / 1000,
			ParallelMS: float64(par.Microseconds()) / 1000,
		}
		if par > 0 {
			t.Speedup = float64(serial) / float64(par)
		}
		rec.Timings = append(rec.Timings, t)
		fmt.Printf("%-6s serial %8.1f ms  parallel(%d) %8.1f ms  speedup %.2fx\n",
			name, t.SerialMS, *parallel, t.ParallelMS, t.Speedup)
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsim: %v\n", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsim: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchsim: memprofile: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *memProf)
	}
	return 0
}

func timeRun(name string, sc experiments.Scale, seed int64, workers, reps int) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := catalog.RunExperiment(name, experiments.Options{Scale: sc, Seed: seed, Parallel: workers}); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}
