package modem

import (
	"sync"

	"wearlock/internal/dsp"
)

// Scratch-buffer ownership rules (DESIGN.md §10): a workspace owns every
// slice hanging off it; the modem borrows them for the duration of one
// call and never retains them past it, mirroring the package's "no
// retained caller slices" contract. The one deliberate exception is a
// result returned by DemodulateInto, whose slices alias the workspace —
// it stays valid only until the workspace's next use, and callers who
// need longer keep a Clone. A workspace serves one call at a time; give
// each goroutine its own.

// TxWorkspace holds the scratch buffers for allocation-free modulation.
// The zero value is ready to use; buffers grow on first use and are then
// reused, so steady-state ModulateInto calls allocate nothing.
type TxWorkspace struct {
	spec   []complex128 // sub-channel spectrum, FFTSize
	time   []complex128 // IFFT output, FFTSize
	body   []float64    // real symbol body, FFTSize
	padded []byte       // symbol-padded payload bits
	points []complex128 // mapped constellation points
}

func (ws *TxWorkspace) ensure(cfg Config, numSymbols int) {
	n := cfg.FFTSize
	if cap(ws.spec) < n {
		ws.spec = make([]complex128, n)
	}
	if cap(ws.time) < n {
		ws.time = make([]complex128, n)
	}
	if cap(ws.body) < n {
		ws.body = make([]float64, n)
	}
	if padBits := numSymbols * cfg.BitsPerSymbol(); cap(ws.padded) < padBits {
		ws.padded = make([]byte, padBits)
	}
	if pts := len(cfg.DataChannels); cap(ws.points) < pts {
		ws.points = make([]complex128, pts)
	}
}

// RxWorkspace holds the scratch buffers and the reusable result shell for
// allocation-free demodulation. The zero value is ready to use.
type RxWorkspace struct {
	res RxResult
	det Detection

	probe    ProbeAnalysis // AnalyzeProbeInto's result shell
	probeDet Detection     // the probe analysis's own detection
	noise    map[int]float64
	gain     map[int]float64
	binPower []float64 // per-bin noise power accumulator over the pilot span
	profile  []float64 // preamble delay profile

	bits     []byte       // decoded bits, grown to the frame's bit count
	points   []complex128 // equalized points, symbol-major
	offsets  []int        // fine-sync offsets
	symPSNR  []float64    // per-symbol pilot SNR
	symBits  []byte       // one symbol's demapped bits
	spectrum []complex128 // FFTSize symbol spectrum
	est      ChannelEstimate

	observed []complex128 // pilot observations
	hbuf     []complex128 // interpolated channel estimate
	iscratch []complex128 // forward-spectrum scratch for interpolation

	levels []float64 // energy-gate window levels
	fwin   []float64 // zero-padded real window for band levels
	fftBuf []complex128
	scores []float64 // preamble correlation scores
	corr   dsp.CorrScratch
}

// reset clears the result shell for a new frame, keeping capacity.
func (ws *RxWorkspace) reset() {
	ws.res = RxResult{}
	ws.det = Detection{}
	ws.bits = ws.bits[:0]
	ws.points = ws.points[:0]
	ws.offsets = ws.offsets[:0]
	ws.symPSNR = ws.symPSNR[:0]
}

func (ws *RxWorkspace) ensure(cfg Config) {
	n := cfg.FFTSize
	if cap(ws.spectrum) < n {
		ws.spectrum = make([]complex128, n)
	}
	if cap(ws.fftBuf) < n {
		ws.fftBuf = make([]complex128, n)
	}
	if cap(ws.fwin) < n {
		ws.fwin = make([]float64, n)
	}
	pilots := len(cfg.PilotChannels)
	if cap(ws.observed) < pilots {
		ws.observed = make([]complex128, pilots)
	}
	if cap(ws.iscratch) < pilots {
		ws.iscratch = make([]complex128, pilots)
	}
	if cap(ws.symBits) < cfg.BitsPerSymbol() {
		ws.symBits = make([]byte, cfg.BitsPerSymbol())
	}
}

// growComplex ensures dst has capacity for n elements and returns it with
// length n (contents unspecified).
func growComplex(dst []complex128, n int) []complex128 {
	if cap(dst) < n {
		return make([]complex128, n)
	}
	return dst[:n]
}

// growFloat is growComplex for float64 slices.
func growFloat(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// The shared workspace pools back the allocating shims (Modulate,
// ProbeSymbol, Demodulate, AnalyzeProbe). Hot paths that must be provably
// allocation-free, the unlock session among them, hold explicit
// workspaces instead: a sync.Pool may miss (and allocate) under GC.
var (
	_txPool = sync.Pool{New: func() any { return &TxWorkspace{} }}
	_rxPool = sync.Pool{New: func() any { return &RxWorkspace{} }}
)

// getTxWorkspace borrows a modulation workspace from the shared pool.
func getTxWorkspace() *TxWorkspace { return _txPool.Get().(*TxWorkspace) }

// putTxWorkspace returns a workspace to the shared pool. The caller must
// not use it afterwards.
func putTxWorkspace(ws *TxWorkspace) { _txPool.Put(ws) }

// getRxWorkspace borrows a demodulation workspace from the shared pool.
func getRxWorkspace() *RxWorkspace { return _rxPool.Get().(*RxWorkspace) }

// putRxWorkspace returns a workspace to the shared pool. Results returned
// by DemodulateInto with this workspace become invalid.
func putRxWorkspace(ws *RxWorkspace) { _rxPool.Put(ws) }
