package core

import (
	"sync"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
	"wearlock/internal/dsp"
	"wearlock/internal/modem"
	"wearlock/internal/wireless"
)

// workspace is the scratch of one unlock attempt (DESIGN.md §10): the
// modem's transmit and receive workspaces, with the probe analysis the
// receive side hands out; the modulator and demodulator, reset per use;
// the noise-similarity envelopes and spectra; the sub-channel selection's
// sets; the token's bits and the repetition codec's coded and decoded
// streams; the attempt's radio link, its own honest acoustic link and the
// path over it, and the header of the frame on air; and how many timeline
// steps an attempt has recorded, which sizes the next fresh timeline.
// Nothing a Result carries out of the attempt aliases it.
type workspace struct {
	tx    modem.TxWorkspace
	rx    modem.RxWorkspace
	mod   modem.Modulator
	demod modem.Demodulator
	noise noiseScratch

	candidates []int
	ranks      []modem.SubChannelRank
	selected   []int

	tokenBits, coded, decoded []byte

	link  acoustic.Link
	path  linkPath
	radio wireless.Link
	// txFrame is the frame being transmitted, from frame to putFrame:
	// pooled samples under a header kept here, so no transmission
	// allocates one.
	txFrame audio.Buffer

	steps int
}

// frame takes an empty pooled frame with room for n samples.
func (ws *workspace) frame(n int) *audio.Buffer {
	ws.txFrame = audio.Buffer{Samples: dsp.GetFloat(n)[:0]}
	return &ws.txFrame
}

// putFrame hands the frame's samples back to the pool.
func (ws *workspace) putFrame() {
	dsp.PutFloat(ws.txFrame.Samples)
	ws.txFrame = audio.Buffer{}
}

// dropLinks forgets the attempt's links, so an idle workspace keeps no
// scenario, fault set or random source alive.
func (ws *workspace) dropLinks() {
	clear(ws.link.Extra)
	ws.link = acoustic.Link{Extra: ws.link.Extra[:0]}
	ws.path = linkPath{}
	ws.radio = wireless.Link{}
}

// _workspaces is the free list of idle workspaces. Unlike a sync.Pool it
// survives garbage collection, and it holds at most as many workspaces as
// attempts ever ran at once.
var _workspaces struct {
	mu   sync.Mutex
	free []*workspace
}

// getWorkspace takes an idle workspace, or makes one when none is idle.
func getWorkspace() *workspace {
	_workspaces.mu.Lock()
	defer _workspaces.mu.Unlock()
	n := len(_workspaces.free)
	if n == 0 {
		return &workspace{}
	}
	ws := _workspaces.free[n-1]
	_workspaces.free[n-1] = nil
	_workspaces.free = _workspaces.free[:n-1]
	return ws
}

// putWorkspace hands ws back once its attempt has finished with it.
func putWorkspace(ws *workspace) {
	_workspaces.mu.Lock()
	_workspaces.free = append(_workspaces.free, ws)
	_workspaces.mu.Unlock()
}

// _probeConfigs caches modem.DefaultConfig(band, modem.QPSK) by band.
// Sessions share its channel slices and never write them.
var _probeConfigs sync.Map // modem.Band -> modem.Config

// probeConfig returns the band's probe configuration.
func probeConfig(band modem.Band) modem.Config {
	if c, ok := _probeConfigs.Load(band); ok {
		return c.(modem.Config)
	}
	c, _ := _probeConfigs.LoadOrStore(band, modem.DefaultConfig(band, modem.QPSK))
	return c.(modem.Config)
}
