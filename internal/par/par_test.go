package par

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7} {
		for _, n := range []int{0, 1, 255, 256, 1000, 4096} {
			var count int64
			seen := make([]int32, n)
			For(n, workers, math.MaxInt, func(_, start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
			})
			if count != int64(n) {
				t.Fatalf("workers=%d n=%d: visited %d", workers, n, count)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForMinCoversRange(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7, 16} {
		for _, minChunk := range []int{0, 1, 2, 64} {
			for _, n := range []int{0, 1, 2, 3, 7, 100} {
				var count int64
				seen := make([]int32, n)
				ForMin(n, workers, minChunk, math.MaxInt, func(_, start, end int) {
					for i := start; i < end; i++ {
						atomic.AddInt32(&seen[i], 1)
						atomic.AddInt64(&count, 1)
					}
				})
				if count != int64(n) {
					t.Fatalf("workers=%d min=%d n=%d: visited %d", workers, minChunk, n, count)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d min=%d n=%d: index %d visited %d times", workers, minChunk, n, i, c)
					}
				}
			}
		}
	}
}

func TestNumChunksMatchesFor(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		for _, minChunk := range []int{1, 2, 256} {
			for _, n := range []int{0, 1, 3, 255, 256, 257, 5000} {
				var maxChunk int64 = -1
				ForMin(n, workers, minChunk, math.MaxInt, func(chunk, _, _ int) {
					for {
						old := atomic.LoadInt64(&maxChunk)
						if int64(chunk) <= old || atomic.CompareAndSwapInt64(&maxChunk, old, int64(chunk)) {
							break
						}
					}
				})
				want := NumChunksMin(n, workers, minChunk)
				if n == 0 {
					// ForMin still invokes fn(0,0,0) once in serial mode.
					continue
				}
				if int(maxChunk)+1 != want {
					t.Fatalf("workers=%d min=%d n=%d: %d chunks used, NumChunksMin says %d",
						workers, minChunk, n, maxChunk+1, want)
				}
			}
		}
	}
}

func TestChunkBoundsNeverExceedWorkers(t *testing.T) {
	// Every chunk index must stay below the worker count so callers can
	// index per-worker scratch with it.
	for _, workers := range []int{2, 3, 8} {
		for _, n := range []int{2, 5, 17, 1000} {
			ForMin(n, workers, 1, math.MaxInt, func(chunk, _, _ int) {
				if chunk >= workers {
					t.Errorf("workers=%d n=%d: chunk %d out of range", workers, n, chunk)
				}
			})
		}
	}
}
