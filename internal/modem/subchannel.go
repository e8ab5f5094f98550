package modem

import (
	"cmp"
	"fmt"
	"slices"
)

// Sub-channel selection (Sec. III "Channel probing and sub-channel
// selection"): after probing, WearLock ranks candidate sub-channels by
// measured noise power and picks data channels "in a priority order from
// low frequency to high frequency, and from low noise power to high noise
// power", avoiding bins occupied by long-lived interferers such as a
// periodically-restarting air conditioner or the Fig. 9 jammer.

// CandidateDataChannels returns every bin inside the pilot span that is
// not a pilot — the pool the selector may assign as data channels.
func CandidateDataChannels(cfg Config) []int {
	return CandidateDataChannelsInto(nil, cfg)
}

// CandidateDataChannelsInto is CandidateDataChannels appending to dst[:0].
func CandidateDataChannelsInto(dst []int, cfg Config) []int {
	pilots := cfg.sortedPilots()
	dst = dst[:0]
	for k := pilots[0] + 1; k < pilots[len(pilots)-1]; k++ {
		if !slices.Contains(cfg.PilotChannels, k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// SubChannelRank orders candidate bins for selection.
type SubChannelRank struct {
	Bin        int
	NoisePower float64
	Gain       float64 // |H| from the probe; 0 if unknown
}

// RankSubChannels sorts candidates into selection priority order. Noise
// power dominates (quantized into 3 dB classes so near-ties fall back to
// frequency order); within a class, lower frequency wins, matching the
// paper's dual priority.
func RankSubChannels(candidates []int, noise map[int]float64, gain map[int]float64) []SubChannelRank {
	return RankSubChannelsInto(nil, candidates, noise, gain)
}

// RankSubChannelsInto is RankSubChannels writing the ranking into dst[:0].
func RankSubChannelsInto(dst []SubChannelRank, candidates []int, noise map[int]float64, gain map[int]float64) []SubChannelRank {
	ranks := dst[:0]
	var minNoise float64
	first := true
	for _, k := range candidates {
		n := noise[k]
		if first || (n > 0 && n < minNoise) {
			if n > 0 {
				minNoise = n
				first = false
			}
		}
		ranks = append(ranks, SubChannelRank{Bin: k, NoisePower: n, Gain: gain[k]})
	}
	if first || minNoise <= 0 {
		minNoise = 1e-30
	}
	class := func(p float64) int {
		if p <= 0 {
			return 0
		}
		// 3 dB noise classes relative to the quietest candidate.
		c := 0
		ratio := p / minNoise
		for ratio > 2 {
			ratio /= 2
			c++
		}
		return c
	}
	slices.SortStableFunc(ranks, func(a, b SubChannelRank) int {
		if c := cmp.Compare(class(a.NoisePower), class(b.NoisePower)); c != 0 {
			return c
		}
		return cmp.Compare(a.Bin, b.Bin)
	})
	return ranks
}

// SelectDataChannels picks numData channels from the ranked candidates,
// skipping bins whose probed gain is below minGainRatio of the median gain
// (dead bins, e.g. above the watch's low-pass cutoff). It returns the new
// channel set in ascending bin order.
func SelectDataChannels(ranks []SubChannelRank, numData int, minGainRatio float64) ([]int, error) {
	return SelectDataChannelsInto(nil, ranks, numData, minGainRatio)
}

// SelectDataChannelsInto is SelectDataChannels writing the selection into
// dst[:0].
func SelectDataChannelsInto(dst []int, ranks []SubChannelRank, numData int, minGainRatio float64) ([]int, error) {
	if numData <= 0 {
		return nil, fmt.Errorf("modem: must select at least one data channel")
	}
	// Every built-in layout has under 32 candidates, so the gains sort
	// in an array on the stack.
	var buf [32]float64
	gains := buf[:0]
	for _, r := range ranks {
		if r.Gain > 0 {
			gains = append(gains, r.Gain)
		}
	}
	var gainFloor float64
	if len(gains) > 0 && minGainRatio > 0 {
		slices.Sort(gains)
		median := gains[len(gains)/2]
		gainFloor = median * minGainRatio
	}
	selected := dst[:0]
	for _, r := range ranks {
		if gainFloor > 0 && r.Gain > 0 && r.Gain < gainFloor {
			continue
		}
		selected = append(selected, r.Bin)
		if len(selected) == numData {
			break
		}
	}
	if len(selected) < numData {
		return nil, fmt.Errorf("modem: only %d usable sub-channels of %d requested", len(selected), numData)
	}
	slices.Sort(selected)
	return selected, nil
}

// ApplySelection returns a copy of cfg with the data channels replaced by
// the selection. The pilot layout is unchanged (pilot spacing is what the
// equalizer relies on).
func ApplySelection(cfg Config, dataChannels []int) (Config, error) {
	return WithDataChannels(cfg, append([]int(nil), dataChannels...))
}

// WithDataChannels is ApplySelection without the copy: the returned
// configuration's data channels are dataChannels itself.
func WithDataChannels(cfg Config, dataChannels []int) (Config, error) {
	out := cfg
	out.DataChannels = dataChannels
	if err := out.Validate(); err != nil {
		return Config{}, fmt.Errorf("modem: selected channel set invalid: %w", err)
	}
	return out, nil
}
