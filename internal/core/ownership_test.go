package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"

	"wearlock/internal/acoustic"
	"wearlock/internal/audio"
)

// keepingPath is a caller-supplied path that keeps every recording, as a
// timing or replay harness does, with its hash at Transmit time.
type keepingPath struct {
	AcousticPath
	recs   []*audio.Buffer
	hashes []uint64
}

func (p *keepingPath) Transmit(frame *audio.Buffer, volumeSPL float64) (*audio.Buffer, error) {
	rec, err := p.AcousticPath.Transmit(frame, volumeSPL)
	if err == nil {
		p.recs = append(p.recs, rec)
		p.hashes = append(p.hashes, hashSamples(rec.Samples))
	}
	return rec, err
}

func hashSamples(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// ownershipScenarios are the default, jammed and NLOS (same-hand)
// scenarios: every transmit-side path that draws pooled buffers.
func ownershipScenarios() []Scenario {
	jammed := DefaultScenario()
	jammed.Name = "jammed"
	jammed.Jammer = &acoustic.Jammer{ToneHz: []float64{2800, 3400, 4100}, SPL: 62}
	nlos := DefaultScenario()
	nlos.Name = "nlos"
	nlos.SameHand = true
	return []Scenario{DefaultScenario(), jammed, nlos}
}

// Recordings from a caller-supplied path belong to the caller: sessions
// that recycle their own pooled recordings and frames must never write
// into one, however many of them run alongside.
func TestKeptRecordingsSurvivePooledSessions(t *testing.T) {
	scenarios := ownershipScenarios()
	cfg := DefaultConfig()
	kept := &keepingPath{}
	keeper, err := NewSystem(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	linkRNG := rand.New(rand.NewSource(2))
	for i := 0; i < 2*len(scenarios); i++ {
		sc := scenarios[i%len(scenarios)]
		link, err := sc.AcousticLink(cfg.Band, probeConfig(cfg.Band).SampleRate, linkRNG)
		if err != nil {
			t.Fatal(err)
		}
		kept.AcousticPath = NewLinkPath(link)
		if _, err := keeper.Unlock(context.Background(), sc, kept); err != nil {
			t.Fatal(err)
		}
	}
	if len(kept.recs) < 2*len(scenarios) {
		t.Fatalf("kept %d recordings, want at least %d", len(kept.recs), 2*len(scenarios))
	}

	const workers, perWorker = 4, 50 // 200 pooled sessions
	var wg sync.WaitGroup
	unlocked := make([]int, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys, err := NewSystem(cfg, rand.New(rand.NewSource(int64(100+w))))
			if err != nil {
				errs[w] = err
				return
			}
			for i := 0; i < perWorker; i++ {
				res, err := sys.Unlock(context.Background(), scenarios[(w+i)%len(scenarios)], nil)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Unlocked {
					unlocked[w]++
				}
				if res.Outcome == OutcomeLockedOut {
					sys.ManualUnlock()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for w := range errs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		total += unlocked[w]
	}
	if total < workers*perWorker/2 {
		t.Fatalf("only %d of %d pooled sessions unlocked; too few reached the audio phases", total, workers*perWorker)
	}
	for i, rec := range kept.recs {
		if got := hashSamples(rec.Samples); got != kept.hashes[i] {
			t.Errorf("kept recording %d changed after pooled sessions ran", i)
		}
	}
}
