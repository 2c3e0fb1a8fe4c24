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
				want := NumChunksMin(n, minChunk)
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

func TestChunkBoundsNeverExceedMaxChunks(t *testing.T) {
	// Every chunk index must stay below MaxChunks so callers can index
	// fixed-size per-chunk scratch with it, whatever the worker count.
	for _, workers := range []int{2, 3, 8, 16} {
		for _, n := range []int{2, 5, 17, 1000} {
			ForMin(n, workers, 1, math.MaxInt, func(chunk, _, _ int) {
				if chunk >= MaxChunks {
					t.Errorf("workers=%d n=%d: chunk %d out of range", workers, n, chunk)
				}
			})
		}
	}
}

// TestChunksIndependentOfWorkers pins the partition contract: the chunk
// bounds a loop sees depend on n and the minimum chunk size only, for every
// worker count and both schedules.
func TestChunksIndependentOfWorkers(t *testing.T) {
	bounds := func(n, workers, minChunk, work int) [MaxChunks][2]int {
		var b [MaxChunks][2]int
		ForMin(n, workers, minChunk, work, func(chunk, start, end int) {
			b[chunk] = [2]int{start, end}
		})
		return b
	}
	for _, minChunk := range []int{1, MinChunk} {
		for _, n := range []int{1, 7, 9, 100, 511, 512, 1087, 2047, 2048, 5000} {
			want := bounds(n, 1, minChunk, 0)
			for _, workers := range []int{0, 2, 3, 8, 16} {
				for _, work := range []int{0, math.MaxInt} {
					if got := bounds(n, workers, minChunk, work); got != want {
						t.Fatalf("n=%d min=%d workers=%d work=%d: chunks %v, want %v", n, minChunk, workers, work, got, want)
					}
				}
			}
		}
	}
}

// TestNumChunksMinPerMinChunk pins the partition rule: one chunk per
// minChunk items, at most MaxChunks, so a loop of 2*MinChunk cheap items
// can already run on two goroutines.
func TestNumChunksMinPerMinChunk(t *testing.T) {
	for _, tc := range []struct{ n, minChunk, want int }{
		{0, MinChunk, 1}, {511, MinChunk, 1}, {512, MinChunk, 2}, {1087, MinChunk, 4},
		{2047, MinChunk, 7}, {2048, MinChunk, 8}, {5000, MinChunk, 8},
		{1, 1, 1}, {7, 1, 7}, {9, 1, 5}, {17, 1, 6},
	} {
		if got := NumChunksMin(tc.n, tc.minChunk); got != tc.want {
			t.Errorf("NumChunksMin(%d, %d) = %d, want %d", tc.n, tc.minChunk, got, tc.want)
		}
	}
}
