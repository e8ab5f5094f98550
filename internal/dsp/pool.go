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
// neighbours instead of owning a private pool.
//
// Each class is a free list that survives garbage collection, unlike a
// sync.Pool, whose contents every second GC cycle drops and the next Get
// re-allocates. A class holds at most as many buffers as were out at once
// (capped at maxFree), so the pools are sized by the peak number of
// concurrent users, not by how long the process has run.
//
// Contract: a Get* buffer is zeroed, exactly like a fresh make(); Put*
// hands it back once the caller is done. Returning a buffer twice, or
// using it after Put, is a data race. Only scratch belongs here: a buffer
// handed to a caller that keeps it must not come from, or go back to, a
// pool.

// numClasses bounds the pooled capacities at 2^(numClasses-1) elements;
// larger requests fall through to make.
const numClasses = 40

// maxFree caps one class's free list; a Put beyond it leaves the buffer to
// the garbage collector.
const maxFree = 64

type freeList[T any] struct {
	mu   sync.Mutex
	bufs [][]T
}

type classPool[T any] struct {
	classes [numClasses]freeList[T] // class k holds buffers of capacity >= 1<<k
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
	l := &p.classes[k]
	l.mu.Lock()
	last := len(l.bufs) - 1
	if last < 0 {
		l.mu.Unlock()
		return make([]T, n, 1<<k)
	}
	buf := l.bufs[last][:n]
	l.bufs[last] = nil
	l.bufs = l.bufs[:last]
	l.mu.Unlock()
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
	l := &p.classes[k]
	l.mu.Lock()
	if len(l.bufs) < maxFree {
		l.bufs = append(l.bufs, buf[:0])
	}
	l.mu.Unlock()
}

// GetComplex returns a zeroed []complex128 of length n from the pool.
func GetComplex(n int) []complex128 { return _complexPool.get(n) }

// PutComplex recycles a buffer obtained from GetComplex.
func PutComplex(buf []complex128) { _complexPool.put(buf) }

// GetFloat returns a zeroed []float64 of length n from the pool.
func GetFloat(n int) []float64 { return _floatPool.get(n) }

// PutFloat recycles a buffer obtained from GetFloat.
func PutFloat(buf []float64) { _floatPool.put(buf) }
