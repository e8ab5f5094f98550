package audio

import (
	"math"

	"wearlock/internal/dsp"
)

// ReferencePressure is the RMS amplitude that corresponds to 0 dB SPL in
// this simulation's digital domain. It is chosen so that a full-scale sine
// (RMS = 1/sqrt(2)) sits at ~97 dB SPL, roughly a phone speaker at maximum
// volume held close to the ear — aligning the simulated dB scale with the
// SPL ranges the paper reports (quiet room 15-20 dB, Sec. III).
const ReferencePressure = 1e-5

// SPL returns the sound pressure level of the buffer in dB:
// 20*log10(p/pref) with p the RMS amplitude (Sec. III-1). An all-zero
// buffer returns -inf.
func SPL(buf *Buffer) float64 {
	return SPLFromPressure(dsp.RMS(buf.Samples))
}

// SPLOf returns the sound pressure level of a raw sample slice, avoiding
// the Buffer wrapper on hot paths.
func SPLOf(samples []float64) float64 {
	return SPLFromPressure(dsp.RMS(samples))
}

// SPLFromPressure converts an RMS amplitude to dB SPL.
func SPLFromPressure(rms float64) float64 {
	if rms <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(rms/ReferencePressure)
}

// PressureFromSPL converts dB SPL to an RMS amplitude.
func PressureFromSPL(spl float64) float64 {
	return ReferencePressure * math.Pow(10, spl/20)
}

// SPLWindowed returns the SPL of each consecutive window of the given
// length, useful for plotting level profiles and for the energy-based
// silence detector. A trailing partial window is ignored.
func SPLWindowed(buf *Buffer, windowLen int) []float64 {
	return SPLWindowedInto(nil, buf, windowLen)
}

// SPLWindowedInto is SPLWindowed writing the levels into dst, grown when
// its capacity is short.
func SPLWindowedInto(dst []float64, buf *Buffer, windowLen int) []float64 {
	if windowLen <= 0 || buf.Len() < windowLen {
		return nil
	}
	n := buf.Len() / windowLen
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = SPLFromPressure(dsp.RMS(buf.Samples[i*windowLen : (i+1)*windowLen]))
	}
	return out
}

// SNRFromSPL returns the signal-to-noise ratio in dB implied by a signal
// and noise SPL, per the paper's estimate SNR_rx = SPL_rx - SPL_noise.
func SNRFromSPL(signalSPL, noiseSPL float64) float64 {
	return signalSPL - noiseSPL
}
