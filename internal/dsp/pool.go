package dsp

import (
	"math/bits"
	"sync"
)

// Scratch-buffer pools for the modem and channel-simulator hot paths. One
// OFDM demodulation performs an FFT per symbol plus one per noise window,
// and one simulated recording renders several noise buffers; without
// pooling each of them is a fresh allocation. The pools are safe for
// concurrent use.
//
// Buffers are pooled by power-of-two capacity class, not by exact length:
// GetFloat(n) hands out buf[:n] from a buffer of capacity
// NextPow2(n), and Put* files a buffer under the largest class its
// capacity covers. A rarely used length therefore shares a class with its
// neighbours instead of owning a private pool that the GC empties before
// the length comes round again. The *[]T boxes sync.Pool stores are
// recycled too, so a pool hit allocates nothing.
//
// Contract: a Get* buffer is zeroed, exactly like a fresh make(); Put*
// hands it back once the caller is done. Returning a buffer twice, or
// using it after Put, is a data race — same rules as sync.Pool. Only
// scratch belongs here: a buffer handed to a caller that keeps it must
// not come from, or go back to, a pool.

// numClasses bounds the pooled capacities at 2^(numClasses-1) elements;
// larger requests fall through to make.
const numClasses = 40

type classPool[T any] struct {
	classes [numClasses]sync.Pool // class k holds *[]T of capacity >= 1<<k
	boxes   sync.Pool             // empty *[]T, reused by the next put
}

var (
	_complexPool classPool[complex128]
	_floatPool   classPool[float64]
)

func (p *classPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // smallest class whose capacity fits n
	if k >= numClasses {
		return make([]T, n)
	}
	box, ok := p.classes[k].Get().(*[]T)
	if !ok {
		return make([]T, n, 1<<k)
	}
	buf := (*box)[:n]
	*box = nil
	p.boxes.Put(box)
	clear(buf)
	return buf
}

func (p *classPool[T]) put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	k := bits.Len(uint(cap(buf))) - 1 // largest class the capacity covers
	if k >= numClasses {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = buf[:0]
	p.classes[k].Put(box)
}

// GetComplex returns a zeroed []complex128 of length n from the pool.
func GetComplex(n int) []complex128 { return _complexPool.get(n) }

// PutComplex recycles a buffer obtained from GetComplex.
func PutComplex(buf []complex128) { _complexPool.put(buf) }

// GetFloat returns a zeroed []float64 of length n from the pool.
func GetFloat(n int) []float64 { return _floatPool.get(n) }

// PutFloat recycles a buffer obtained from GetFloat.
func PutFloat(buf []float64) { _floatPool.put(buf) }
