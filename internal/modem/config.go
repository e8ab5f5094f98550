package modem

import (
	"fmt"
	"slices"
	"sort"
)

// Band selects the frequency band the modem operates in. The phone-watch
// pair must use the audible band because the watch's built-in low-pass
// filter kills everything above ~7 kHz; an (emulated) phone-phone pair can
// use inaudible near-ultrasound (Sec. III-2).
type Band int

// Supported bands.
const (
	BandAudible        Band = iota + 1 // 1-6 kHz
	BandNearUltrasound                 // 15-20 kHz
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case BandAudible:
		return "audible"
	case BandNearUltrasound:
		return "near-ultrasound"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// binShift returns how far the default channel assignment is shifted for
// the band ("we shift this channel assignment with higher index when we
// want the 15-20 kHz frequency band", Sec. VI).
func (b Band) binShift() int {
	if b == BandNearUltrasound {
		// Bin 7+80=87 is ~15 kHz and bin 35+80=115 is ~19.8 kHz at
		// 44.1 kHz / FFT 256.
		return 80
	}
	return 0
}

// Default frame-geometry constants, from Sec. VI "Implementation Details".
const (
	DefaultSampleRate        = 44100
	DefaultFFTSize           = 256 // ~172 Hz sub-channel bandwidth
	DefaultCPLen             = 128 // cyclic prefix duration in samples
	DefaultPreambleLen       = 256 // chirp preamble samples
	DefaultPostPreambleGuard = 1024
	DefaultSymbolGuard       = 384 // zero-padding Tg against reverberation
)

// Config fully describes the OFDM frame geometry and channel assignment.
// Channels are FFT bin indices in [1, FFTSize/2); the paper indexes
// channels 1-256 and picks data {16..30} / pilots {7,11,...,35} for the
// audible band.
type Config struct {
	SampleRate        int
	FFTSize           int
	CPLen             int
	PreambleLen       int
	PostPreambleGuard int
	SymbolGuard       int

	DataChannels  []int // carry payload constellation points
	PilotChannels []int // carry known unit-power pilots; must be equally spaced
	Modulation    Modulation
	Band          Band

	// PreambleLowHz/PreambleHighHz bound the LFM chirp sweep. Zero values
	// default to the edges of the configured band.
	PreambleLowHz  float64
	PreambleHighHz float64
}

// DefaultConfig returns the paper's default parameterization for the given
// band, with the requested modulation.
func DefaultConfig(band Band, mod Modulation) Config {
	shift := band.binShift()
	data := []int{16, 17, 18, 20, 21, 22, 24, 25, 26, 28, 29, 30}
	pilots := []int{7, 11, 15, 19, 23, 27, 31, 35}
	for i := range data {
		data[i] += shift
	}
	for i := range pilots {
		pilots[i] += shift
	}
	return Config{
		SampleRate:        DefaultSampleRate,
		FFTSize:           DefaultFFTSize,
		CPLen:             DefaultCPLen,
		PreambleLen:       DefaultPreambleLen,
		PostPreambleGuard: DefaultPostPreambleGuard,
		SymbolGuard:       DefaultSymbolGuard,
		DataChannels:      data,
		PilotChannels:     pilots,
		Modulation:        mod,
		Band:              band,
	}
}

// UltrasoundConfig builds a configuration for devices with high-rate
// audio pipelines — the extension the paper's Discussion anticipates
// ("several latest models ... support 96 kHz and higher audio
// recording/playback; devices with higher sampling rate can utilize
// higher and more frequency bands with less noise and more bandwidth").
// The returned configuration keeps the paper's channel layout (12 data +
// 8 equally spaced pilots) but places it in the fully inaudible
// 21.5-27 kHz band with a 512-point FFT, roughly doubling the sub-channel
// bandwidth. sampleRate must be at least 64 kHz.
func UltrasoundConfig(sampleRate int, mod Modulation) (Config, error) {
	if sampleRate < 64000 {
		return Config{}, fmt.Errorf("modem: ultrasound band needs >= 64 kHz sampling, got %d", sampleRate)
	}
	const fftSize = 512
	binHz := float64(sampleRate) / fftSize
	// Anchor the first pilot near 21.5 kHz.
	base := int(21500 / binHz)
	pilots := make([]int, 8)
	for i := range pilots {
		pilots[i] = base + 4*i
	}
	data := make([]int, 0, 12)
	for _, off := range []int{9, 10, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23} {
		data = append(data, base+off)
	}
	cfg := Config{
		SampleRate:        sampleRate,
		FFTSize:           fftSize,
		CPLen:             256,
		PreambleLen:       512,
		PostPreambleGuard: 2048,
		SymbolGuard:       768,
		DataChannels:      data,
		PilotChannels:     pilots,
		Modulation:        mod,
		Band:              BandNearUltrasound,
		PreambleLowHz:     float64(base) * binHz,
		PreambleHighHz:    float64(pilots[len(pilots)-1]) * binHz,
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("modem: sample rate %d must be positive", c.SampleRate)
	}
	if c.FFTSize <= 0 || c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("modem: FFT size %d must be a power of two", c.FFTSize)
	}
	if c.CPLen < 0 || c.CPLen >= c.FFTSize {
		return fmt.Errorf("modem: cyclic prefix %d outside [0, %d)", c.CPLen, c.FFTSize)
	}
	if c.PreambleLen <= 0 {
		return fmt.Errorf("modem: preamble length %d must be positive", c.PreambleLen)
	}
	if c.PostPreambleGuard < 0 || c.SymbolGuard < 0 {
		return fmt.Errorf("modem: guard lengths must be non-negative")
	}
	if !c.Modulation.Valid() {
		return fmt.Errorf("modem: invalid modulation %d", int(c.Modulation))
	}
	if len(c.DataChannels) == 0 {
		return fmt.Errorf("modem: no data channels configured")
	}
	if len(c.PilotChannels) < 2 {
		return fmt.Errorf("modem: need at least 2 pilot channels, got %d", len(c.PilotChannels))
	}
	if err := c.checkChannelIndices(); err != nil {
		return err
	}
	if err := c.checkPilotSpacing(); err != nil {
		return err
	}
	return nil
}

// checkChannelIndices marks each channel in a bitset over the FFTSize/2
// bins, which lives on the stack for every built-in FFT size.
func (c Config) checkChannelIndices() error {
	var small [8]uint64 // 512 bins: FFT sizes up to 1024
	seen := small[:]
	if words := (c.FFTSize/2 + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	sets := [2]struct {
		kind  string
		chans []int
	}{{"data", c.DataChannels}, {"pilot", c.PilotChannels}}
	for _, set := range sets {
		for _, k := range set.chans {
			if k < 1 || k >= c.FFTSize/2 {
				return fmt.Errorf("modem: %s channel %d outside [1, %d)", set.kind, k, c.FFTSize/2)
			}
			word, bit := k/64, uint64(1)<<(k%64)
			if seen[word]&bit != 0 {
				return fmt.Errorf("modem: channel %d assigned twice", k)
			}
			seen[word] |= bit
		}
	}
	return nil
}

// checkPilotSpacing enforces equal pilot spacing and that every data
// channel lies inside the pilot span, both of which the FFT-interpolating
// equalizer requires.
func (c Config) checkPilotSpacing() error {
	pilots := c.sortedPilots()
	spacing := pilots[1] - pilots[0]
	for i := 2; i < len(pilots); i++ {
		if pilots[i]-pilots[i-1] != spacing {
			return fmt.Errorf("modem: pilot channels %v are not equally spaced", pilots)
		}
	}
	lo, hi := pilots[0], pilots[len(pilots)-1]
	for _, d := range c.DataChannels {
		if d < lo || d > hi {
			return fmt.Errorf("modem: data channel %d outside pilot span [%d, %d]", d, lo, hi)
		}
	}
	return nil
}

// SortedPilots returns the pilot channels in ascending order. The result
// may alias the configuration's own slice; callers must not modify it.
func (c Config) SortedPilots() []int {
	return c.sortedPilots()
}

// sortedPilots returns the pilot channels in ascending order. When the
// configured slice is already sorted (every built-in layout), it is
// returned as-is — allocation-free, read-only by convention.
func (c Config) sortedPilots() []int {
	if sort.IntsAreSorted(c.PilotChannels) {
		return c.PilotChannels
	}
	pilots := append([]int(nil), c.PilotChannels...)
	sort.Ints(pilots)
	return pilots
}

// NullChannels returns the in-band channels carrying neither data nor
// pilots; the pilot-based SNR estimator measures noise on these (Eq. 3).
func (c Config) NullChannels() []int {
	return c.appendNullChannels(nil)
}

// appendNullChannels appends NullChannels to dst: every bin of the pilot
// span, in ascending order, that carries neither data nor a pilot.
func (c Config) appendNullChannels(dst []int) []int {
	pilots := c.sortedPilots()
	for k := pilots[0]; k <= pilots[len(pilots)-1]; k++ {
		if !slices.Contains(c.DataChannels, k) && !slices.Contains(c.PilotChannels, k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// SubChannelHz returns the center frequency of FFT bin k.
func (c Config) SubChannelHz(k int) float64 {
	return float64(k) * float64(c.SampleRate) / float64(c.FFTSize)
}

// SubChannelBandwidthHz returns the bin spacing (about 172 Hz at the
// defaults).
func (c Config) SubChannelBandwidthHz() float64 {
	return float64(c.SampleRate) / float64(c.FFTSize)
}

// BandEdges returns the chirp sweep bounds, defaulting to the band edges.
func (c Config) BandEdges() (low, high float64) {
	low, high = c.PreambleLowHz, c.PreambleHighHz
	if low == 0 || high == 0 {
		switch c.Band {
		case BandNearUltrasound:
			return 15000, 20000
		default:
			return 1000, 6000
		}
	}
	return low, high
}

// SymbolLen returns the length of one OFDM symbol on the wire: cyclic
// prefix + body + zero-padding guard.
func (c Config) SymbolLen() int {
	return c.CPLen + c.FFTSize + c.SymbolGuard
}

// BitsPerSymbol returns the payload bits carried by one OFDM symbol.
func (c Config) BitsPerSymbol() int {
	return len(c.DataChannels) * c.Modulation.BitsPerSymbol()
}

// NumSymbols returns how many OFDM symbols are needed for numBits payload
// bits.
func (c Config) NumSymbols(numBits int) int {
	bps := c.BitsPerSymbol()
	if bps == 0 || numBits <= 0 {
		return 0
	}
	return (numBits + bps - 1) / bps
}

// FrameLen returns the on-wire length in samples of a frame carrying
// numBits payload bits.
func (c Config) FrameLen(numBits int) int {
	return c.PreambleLen + c.PostPreambleGuard + c.NumSymbols(numBits)*c.SymbolLen()
}

// DataRate returns the payload data rate in bits per second,
// R = |D| * rc * log2(M) / (Tg + Ts) with rc = 1 (no channel coding),
// accounting for preamble-free steady-state transmission.
func (c Config) DataRate() float64 {
	symbolSeconds := float64(c.SymbolLen()) / float64(c.SampleRate)
	return float64(c.BitsPerSymbol()) / symbolSeconds
}

// OccupiedBandwidthHz returns the bandwidth spanned by the pilot range.
func (c Config) OccupiedBandwidthHz() float64 {
	pilots := c.sortedPilots()
	return c.SubChannelHz(pilots[len(pilots)-1]) - c.SubChannelHz(pilots[0])
}
