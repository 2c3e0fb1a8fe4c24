package par

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run is what one loop did: the bounds each chunk saw, the order the chunk
// hook fired in, the most chunks ever in flight at once, and the float
// reduction of its per-chunk partials combined in chunk order.
type run struct {
	triples  [][3]int
	hooks    []int
	inFlight int32
	sum      uint64
}

// runLoop runs one ForMin over a float reduction with the given work
// estimate, recording what it did. Each chunk waits briefly for a second
// chunk to enter, so a forked loop reliably shows two chunks in flight
// while an inline one, whose chunks run one after another, cannot.
func runLoop(t *testing.T, n, workers, minChunk, work int) run {
	t.Helper()
	var (
		mu     sync.Mutex
		r      run
		active atomic.Int32
		peak   atomic.Int32
	)
	SetChunkHook(func(chunk int) {
		mu.Lock()
		r.hooks = append(r.hooks, chunk)
		mu.Unlock()
	})
	defer SetChunkHook(nil)
	partials := make([]float64, NumChunksMin(n, minChunk))
	ForMin(n, workers, minChunk, work, func(chunk, start, end int) {
		now := active.Add(1)
		for deadline := time.Now().Add(20 * time.Millisecond); now < 2 && time.Now().Before(deadline); now = active.Load() {
			runtime.Gosched()
		}
		for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
		}
		var p float64
		for i := start; i < end; i++ {
			p += 1 / float64(3*i+1)
		}
		partials[chunk] = p
		mu.Lock()
		r.triples = append(r.triples, [3]int{chunk, start, end})
		mu.Unlock()
		active.Add(-1)
	})
	var total float64
	for _, p := range partials {
		total += p
	}
	r.sum = math.Float64bits(total)
	r.inFlight = peak.Load()
	return r
}

// scheduleCases are partitions with the shapes the solver loops produce.
var scheduleCases = []struct {
	name                string
	n, workers, minimum int
}{
	{"n-below-workers-times-minChunk", 700, 4, MinChunk},
	{"uneven-last-chunk", 11, 4, 1},
	{"uneven-last-chunk-MinChunk", 2500, 3, MinChunk},
	{"workers-above-n", 3, 8, 1},
	{"even", 4096, 4, 1},
}

// TestInlineMatchesForked runs each loop just below the grain (inline) and
// at the grain (forked) and checks that the schedule changes nothing but
// where the chunks run.
func TestInlineMatchesForked(t *testing.T) {
	for _, tc := range scheduleCases {
		t.Run(tc.name, func(t *testing.T) {
			inline := runLoop(t, tc.n, tc.workers, tc.minimum, grain-1)
			forked := runLoop(t, tc.n, tc.workers, tc.minimum, grain)
			chunks := NumChunksMin(tc.n, tc.minimum)

			if len(inline.triples) != chunks {
				t.Fatalf("inline loop ran %d chunks, NumChunksMin says %d", len(inline.triples), chunks)
			}
			if tc.minimum == MinChunk && NumChunks(tc.n) != chunks {
				t.Fatalf("NumChunks says %d chunks, the loop ran %d", NumChunks(tc.n), chunks)
			}
			want := fmt.Sprint(inline.triples)
			for c, tr := range inline.triples {
				if tr[0] != c {
					t.Fatalf("inline chunks out of order: %v", inline.triples)
				}
			}
			sortTriples(forked.triples)
			if got := fmt.Sprint(forked.triples); got != want {
				t.Fatalf("forked chunks %s, inline chunks %s", got, want)
			}
			for name, r := range map[string]run{"inline": inline, "forked": forked} {
				seen := make([]int, chunks)
				for _, c := range r.hooks {
					seen[c]++
				}
				for c, k := range seen {
					if k != 1 {
						t.Fatalf("%s: hook ran %d times for chunk %d", name, k, c)
					}
				}
			}
			for c, h := range inline.hooks {
				if h != c {
					t.Fatalf("inline hook order %v, want chunk order", inline.hooks)
				}
			}
			if inline.sum != forked.sum {
				t.Fatalf("float reduction differs: inline %x, forked %x", inline.sum, forked.sum)
			}
			if inline.inFlight != 1 {
				t.Fatalf("inline loop had %d chunks in flight", inline.inFlight)
			}
			if chunks > 1 && forked.inFlight < 2 {
				t.Fatalf("forked loop of %d chunks never had two in flight", chunks)
			}
			if limit := int32(min(tc.workers, chunks)); forked.inFlight > limit {
				t.Fatalf("forked loop had %d chunks in flight, want at most %d goroutines", forked.inFlight, limit)
			}
		})
	}
}

func sortTriples(ts [][3]int) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j][0] < ts[j-1][0]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// TestInlineMatchesForkedFailures checks that both schedules surface the
// same outcome: the lowest panicking chunk, after every chunk has run, and
// ctx.Err() for a context cancelled before the chunks start.
func TestInlineMatchesForkedFailures(t *testing.T) {
	for _, tc := range scheduleCases {
		chunks := NumChunksMin(tc.n, tc.minimum)
		for _, work := range []int{grain - 1, grain} {
			t.Run(fmt.Sprintf("%s/work=%d", tc.name, work), func(t *testing.T) {
				// Every chunk but the first panics when there are several,
				// so the winner is chunk 1, not simply the first to run.
				lowest := min(1, chunks-1)
				var ran atomic.Int32
				pe := recoverPanicError(t, func() {
					ForMin(tc.n, tc.workers, tc.minimum, work, func(chunk, start, end int) {
						ran.Add(1)
						if chunk >= lowest {
							panic(chunk)
						}
					})
				})
				if pe == nil || pe.Chunk != lowest || pe.Value != lowest {
					t.Fatalf("got %+v, want chunk %d", pe, lowest)
				}
				if int(ran.Load()) != chunks {
					t.Fatalf("%d of %d chunks ran after a panic", ran.Load(), chunks)
				}

				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				var hooked atomic.Int32
				SetChunkHook(func(int) { hooked.Add(1) })
				defer SetChunkHook(nil)
				err := ForMinCtx(ctx, tc.n, tc.workers, tc.minimum, work, func(chunk, start, end int) {
					t.Error("chunk ran under a cancelled context")
				})
				if !errors.Is(err, context.Canceled) || hooked.Load() != 0 {
					t.Fatalf("err %v after %d hook calls, want context.Canceled and none", err, hooked.Load())
				}
			})
		}
	}
}

// TestInlineCancelSkipsLaterChunks cancels from inside the first chunk of
// an inline loop: every later chunk finds the context done before it
// starts, is skipped, and the loop reports ctx.Err().
func TestInlineCancelSkipsLaterChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	err := ForMinCtx(ctx, 10, 4, 1, grain-1, func(chunk, start, end int) {
		ran = append(ran, chunk)
		cancel()
	})
	if !errors.Is(err, context.Canceled) || len(ran) != 1 || ran[0] != 0 {
		t.Fatalf("err %v, chunks run %v; want context.Canceled after chunk 0 only", err, ran)
	}
}
