package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs (p in (0,1]); NaN when
// xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// mean is the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here match that tool's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortByIdx(obs []*observation) {
	sort.Slice(obs, func(i, j int) bool { return obs[i].idx < obs[j].idx })
}

// exposition is one scrape of a Prometheus text endpoint: every sample
// summed over its label sets, plus wearlockd_sessions_total per outcome.
type exposition struct {
	values   map[string]float64
	outcomes map[string]int
}

// scrape GETs url and parses the exposition.
func scrape(client *http.Client, url string) (exposition, error) {
	resp, err := client.Get(url)
	if err != nil {
		return exposition{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return exposition{}, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	e := exposition{values: map[string]float64{}, outcomes: map[string]int{}}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return exposition{}, fmt.Errorf("malformed sample %q", line)
			}
			name, labels = line[:i], line[i+1:j]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line[strings.LastIndexAny(line, "} ")+1:])
		if len(fields) == 0 {
			return exposition{}, fmt.Errorf("sample %q has no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return exposition{}, fmt.Errorf("sample %q: %w", line, err)
		}
		e.values[name] += v
		if name == "wearlockd_sessions_total" {
			for _, kv := range strings.Split(labels, ",") {
				if k, val, ok := strings.Cut(kv, "="); ok && k == "outcome" {
					e.outcomes[strings.Trim(val, `"`)] += int(v)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return exposition{}, err
	}
	return e, nil
}

// delta returns after − before for one summed sample.
func delta(before, after exposition, name string) float64 {
	return after.values[name] - before.values[name]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the process-wide Go runtime counters the benchmark
// differences over a window.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: value(samples[0]), totalCPU: value(samples[1]), allocBytes: value(samples[2])}
}
