package dsp

import (
	"fmt"
	"math"
)

// Goertzel computes the power of a single frequency component of x using
// the Goertzel algorithm, which is cheaper than a full FFT when only a few
// bins are needed. The sub-channel ranking stage uses it to measure noise
// power on candidate sub-channels during probing. freqHz is the target
// frequency and sampleRate the sampling rate, both in Hz.
func Goertzel(x []float64, freqHz, sampleRate float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("dsp: Goertzel on empty signal")
	}
	if sampleRate <= 0 {
		return 0, fmt.Errorf("dsp: Goertzel sample rate %.2f must be positive", sampleRate)
	}
	if freqHz < 0 || freqHz > sampleRate/2 {
		return 0, fmt.Errorf("dsp: Goertzel frequency %.1f outside [0, %.1f]", freqHz, sampleRate/2)
	}
	omega := 2 * math.Pi * freqHz / sampleRate
	coeff := 2 * math.Cos(omega)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	// Normalize so the result is comparable to |X(k)|^2 / N of an FFT bin.
	return power / float64(len(x)), nil
}

// GoertzelBatch computes the power of several frequency components of x in
// a single pass over the samples, writing the result for freqsHz[i] into
// dst[i]. Each component runs the same recurrence as Goertzel, so the
// results are bit-identical to len(freqsHz) separate Goertzel calls while
// reading the (potentially long) sample slice only once. The tone-probe
// stage uses this to check a tone and its guard bands together.
//
// dst must have the same length as freqsHz. No allocations occur for up to
// 8 frequencies.
func GoertzelBatch(dst []float64, x []float64, freqsHz []float64, sampleRate float64) error {
	if len(dst) != len(freqsHz) {
		return fmt.Errorf("dsp: Goertzel dst length %d, want %d", len(dst), len(freqsHz))
	}
	if len(freqsHz) == 0 {
		return nil
	}
	if len(x) == 0 {
		return fmt.Errorf("dsp: Goertzel on empty signal")
	}
	if sampleRate <= 0 {
		return fmt.Errorf("dsp: Goertzel sample rate %.2f must be positive", sampleRate)
	}
	var coeffBuf, s1Buf, s2Buf [8]float64
	coeff, s1, s2 := coeffBuf[:0], s1Buf[:0], s2Buf[:0]
	if len(freqsHz) > len(coeffBuf) {
		coeff = make([]float64, 0, len(freqsHz))
		s1 = make([]float64, len(freqsHz))
		s2 = make([]float64, len(freqsHz))
	} else {
		s1 = s1Buf[:len(freqsHz)]
		s2 = s2Buf[:len(freqsHz)]
	}
	for _, f := range freqsHz {
		if f < 0 || f > sampleRate/2 {
			return fmt.Errorf("dsp: Goertzel frequency %.1f outside [0, %.1f]", f, sampleRate/2)
		}
		omega := 2 * math.Pi * f / sampleRate
		coeff = append(coeff, 2*math.Cos(omega))
	}
	for _, v := range x {
		for i := range coeff {
			s0 := v + coeff[i]*s1[i] - s2[i]
			s2[i] = s1[i]
			s1[i] = s0
		}
	}
	n := float64(len(x))
	for i := range dst {
		power := s1[i]*s1[i] + s2[i]*s2[i] - coeff[i]*s1[i]*s2[i]
		// Same normalization as Goertzel: comparable to |X(k)|^2 / N.
		dst[i] = power / n
	}
	return nil
}
