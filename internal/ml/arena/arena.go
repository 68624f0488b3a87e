// Package arena provides sync.Pool-backed scratch buffers for the model
// kernels (poly, linalg, mic) and the core prediction hot path. Training
// and inference run the same small handful of buffer shapes millions of
// times — standardization rows, residual vectors, fold index sets — and
// allocating them per call is what pushed Train to O(rows·terms)
// allocations. The arena turns those into O(1) pool hits.
//
// Buffers are bucketed by capacity class (next power of two), so a Get for
// any length up to the bucket's capacity reuses the same backing array.
// Contents are NOT zeroed on Get: callers own initialization, which every
// kernel does anyway by construction (full overwrite before first read).
// Put recycles a buffer for any future Get; the caller must not retain or
// alias the slice after Put. Pools are safe for concurrent use, so the
// parallel cross-validation workers share them freely.
package arena

import (
	"math/bits"
	"sync"
)

// maxBucket bounds the pooled capacity classes at 1<<maxBucket elements
// (~8 MiB of float64s). Larger requests are allocated directly and dropped
// on Put, so one huge transient cannot pin memory in the pool forever.
const maxBucket = 20

var (
	floatPools [maxBucket + 1]sync.Pool
	intPools   [maxBucket + 1]sync.Pool
	rowPools   [maxBucket + 1]sync.Pool
)

// bucketFor returns the capacity class for a request of n elements:
// the smallest b with 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Floats returns a pooled []float64 of length n (uninitialized). Release
// it with PutFloats when done.
func Floats(n int) *[]float64 {
	b := bucketFor(n)
	if b > maxBucket {
		s := make([]float64, n)
		return &s
	}
	if v := floatPools[b].Get(); v != nil {
		s := v.(*[]float64)
		*s = (*s)[:n]
		return s
	}
	s := make([]float64, n, 1<<b)
	return &s
}

// PutFloats returns a buffer obtained from Floats to its pool.
func PutFloats(s *[]float64) {
	if s == nil {
		return
	}
	b := bucketFor(cap(*s))
	if b > maxBucket || cap(*s) != 1<<b {
		return // oversized or foreign buffer: let the GC have it
	}
	floatPools[b].Put(s)
}

// Ints returns a pooled []int of length n (uninitialized).
func Ints(n int) *[]int {
	b := bucketFor(n)
	if b > maxBucket {
		s := make([]int, n)
		return &s
	}
	if v := intPools[b].Get(); v != nil {
		s := v.(*[]int)
		*s = (*s)[:n]
		return s
	}
	s := make([]int, n, 1<<b)
	return &s
}

// PutInts returns a buffer obtained from Ints to its pool.
func PutInts(s *[]int) {
	if s == nil {
		return
	}
	b := bucketFor(cap(*s))
	if b > maxBucket || cap(*s) != 1<<b {
		return
	}
	intPools[b].Put(s)
}

// Slab carves many float buffers out of one pooled allocation. Callers
// that need a handful of related scratch vectors (the optimizer's
// batched prediction passes carve a dozen) take one
// Slab sized for the sum instead of a pool round-trip per vector, and
// release everything with a single Release. Carved slices follow arena
// rules: uninitialized on Floats, invalid after Release.
type Slab struct {
	buf  *[]float64
	next int
}

// NewSlab returns a slab with capacity for n float64s in total.
func NewSlab(n int) *Slab {
	return &Slab{buf: Floats(n)}
}

// Floats carves the next n float64s from the slab (uninitialized).
// Carved slices have exact capacity, so appends cannot silently bleed
// into a neighbouring carve. Carving past the backing buffer panics:
// sizes are static at every call site, so an overrun is a programming
// error, not a runtime condition.
func (s *Slab) Floats(n int) []float64 {
	out := (*s.buf)[s.next : s.next+n : s.next+n]
	s.next += n
	return out
}

// Release returns the slab's backing buffer to the pool. The slab and
// every slice carved from it are invalid afterwards.
func (s *Slab) Release() {
	PutFloats(s.buf)
	s.buf = nil
}

// Rows returns a pooled [][]float64 of length n with every element nil.
// Cross-validation uses these for fold splits: the elements alias caller
// rows, so Rows clears them on Get rather than trusting the previous user.
func Rows(n int) *[][]float64 {
	b := bucketFor(n)
	if b > maxBucket {
		s := make([][]float64, n)
		return &s
	}
	if v := rowPools[b].Get(); v != nil {
		s := v.(*[][]float64)
		*s = (*s)[:n]
		for i := range *s {
			(*s)[i] = nil
		}
		return s
	}
	s := make([][]float64, n, 1<<b)
	return &s
}

// PutRows returns a buffer obtained from Rows to its pool. The row
// pointers are dropped eagerly so the pool never keeps caller data alive.
func PutRows(s *[][]float64) {
	if s == nil {
		return
	}
	for i := range *s {
		(*s)[i] = nil
	}
	b := bucketFor(cap(*s))
	if b > maxBucket || cap(*s) != 1<<b {
		return
	}
	rowPools[b].Put(s)
}
