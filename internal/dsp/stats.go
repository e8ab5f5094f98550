package dsp

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	mean := Mean(x)
	var sum float64
	for _, v := range x {
		d := v - mean
		sum += d * d
	}
	return sum / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// RMS returns the root-mean-square amplitude of x, or 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}

// Median returns the median of x, or 0 for an empty slice. The input is not
// modified.
func Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	mid := len(tmp) / 2
	if len(tmp)%2 == 1 {
		return tmp[mid]
	}
	return (tmp[mid-1] + tmp[mid]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of x using linear
// interpolation between closest ranks.
func Percentile(x []float64, p float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("dsp: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("dsp: percentile %.2f out of [0, 100]", p)
	}
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	if len(tmp) == 1 {
		return tmp[0], nil
	}
	rank := p / 100 * float64(len(tmp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return tmp[lo], nil
	}
	frac := rank - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}

// DB converts a power ratio to decibels: 10*log10(ratio). Non-positive
// ratios map to -inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDBAmplitude converts decibels to an amplitude ratio.
func FromDBAmplitude(db float64) float64 {
	return math.Pow(10, db/20)
}

// NormalizeRMS scales x in place to the target RMS amplitude. A zero signal
// is left unchanged.
func NormalizeRMS(x []float64, targetRMS float64) {
	rms := RMS(x)
	if rms == 0 {
		return
	}
	gain := targetRMS / rms
	for i := range x {
		x[i] *= gain
	}
}

// ZScoreNormalizeInto writes x shifted to zero mean and scaled to unit
// variance into dst[:len(x)]; dst must hold at least len(x) samples. A
// constant input yields all zeros. It allocates nothing. The motion
// filter normalizes accelerometer magnitudes this way before DTW.
func ZScoreNormalizeInto(dst, x []float64) {
	dst = dst[:len(x)]
	mean := Mean(x)
	std := StdDev(x)
	if std == 0 {
		clear(dst)
		return
	}
	for i, v := range x {
		dst[i] = (v - mean) / std
	}
}
