package motion

// Workspace holds the buffers of one pre-filter run — both traces, their
// z-scored copies and the DTW rows — so a caller that runs many sessions
// reuses them instead of allocating each time. The zero value is ready
// to use. A Workspace is not safe for concurrent use, and the traces its
// TracePair returns alias it: they stay valid only until its next
// TracePair. The package-level TracePair, Filter, DTW and
// NormalizedMagnitudeScore run the same bodies on a fresh workspace.
type Workspace struct {
	phone, watch    []float64
	zPhone, zWatch  []float64
	prev, cur       []float64
	prevLen, curLen []int32
}

// resize returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
