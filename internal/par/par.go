// Package par provides the deterministic chunked fork-join helpers shared
// by the TDM assignment and routing stages. Work over [0, n) is split into
// one contiguous chunk per worker; chunk boundaries depend only on n, the
// worker count, and the minimum chunk size, and callers combine per-chunk
// partial results in chunk order, so results are deterministic for a fixed
// worker count.
//
// Every helper also takes the caller's estimate of the loop's total work,
// in rough inner-loop element visits. The estimate never moves a chunk
// boundary; it only decides who runs the chunks. A loop below one grain of
// work runs its chunks one after another on the calling goroutine, because
// a fork-join would cost more processor time than it spreads; a loop at or
// above the grain runs each chunk on its own goroutine. Since a chunk's
// outputs depend only on its bounds, both schedules give the same bytes.
//
// All helpers contain worker panics: a panic inside a chunk is recovered on
// the worker goroutine, the first panicking chunk by chunk index wins (a
// deterministic choice independent of goroutine scheduling), and the panic
// resurfaces on the calling goroutine as a typed *PanicError carrying the
// original value and the captured stack. ForCtx/ForMinCtx additionally stop
// launching work once a context is cancelled; Capture converts contained
// panics into ordinary errors at stage boundaries.
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MinChunk is the default minimum chunk size used by For and NumChunks: a
// loop whose average chunk would fall below it runs as one chunk, so
// trivially small loops with cheap items (the LR inner loops) are not
// split at all. Loops with expensive items (net routing) should use ForMin
// with a smaller threshold.
const MinChunk = 256

// PanicError is a contained worker panic. When a chunk of For/ForMin
// panics, the panic is recovered on the worker goroutine and re-raised on
// the calling goroutine as a *PanicError; when several chunks panic in the
// same call, the one with the smallest chunk index wins, so the surfaced
// error is deterministic for a fixed worker count. Capture converts the
// re-raised panic into a returned error.
type PanicError struct {
	// Chunk is the index of the panicking chunk, or -1 when the panic was
	// captured outside a parallel chunk (Capture on sequential code).
	Chunk int
	// Value is the original value passed to panic.
	Value any
	// Stack is the stack of the panicking goroutine at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Chunk < 0 {
		return fmt.Sprintf("par: contained panic: %v", e.Value)
	}
	return fmt.Sprintf("par: contained panic in chunk %d: %v", e.Chunk, e.Value)
}

// Capture invokes fn and converts a panic on fn's goroutine into a returned
// error: a *PanicError re-raised by For/ForMin passes through unchanged
// (preserving the innermost chunk attribution), any other panic value is
// wrapped into a new *PanicError with Chunk = -1. It is the stage-boundary
// guard of the anytime pipeline: a solver stage wrapped in Capture can fail
// with a typed error instead of tearing the process down.
func Capture(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Chunk: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// chunkHook, when set, is called at the entry of every chunk with the chunk
// index — the fault-injection point of the chaos harness (internal/chaos).
// It is loaded atomically once per chunk, so the cost when unset is one
// atomic pointer load per chunk (chunks are at most the worker count).
var chunkHook atomic.Pointer[func(chunk int)]

// SetChunkHook installs fn as the per-chunk entry hook, or removes the hook
// when fn is nil. It exists for deterministic fault injection in tests; the
// solver never installs one. The hook runs on the worker goroutine and may
// panic — the panic is contained like any other chunk panic.
func SetChunkHook(fn func(chunk int)) {
	if fn == nil {
		chunkHook.Store(nil)
		return
	}
	chunkHook.Store(&fn)
}

// runChunk invokes fn for one chunk, containing panics. An already-typed
// *PanicError (from a nested For/ForMin) passes through so the innermost
// chunk attribution survives nesting.
func runChunk(c, s, e int, fn func(chunk, start, end int)) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(*PanicError); ok {
				pe = p
				return
			}
			pe = &PanicError{Chunk: c, Value: r, Stack: debug.Stack()}
		}
	}()
	if h := chunkHook.Load(); h != nil {
		(*h)(c)
	}
	fn(c, s, e)
	return nil
}

// For splits [0, n) into one contiguous chunk per worker and runs
// fn(chunk, start, end) once per chunk, inlining the whole range as one
// chunk when the average chunk would fall below MinChunk; workers <= 1 is
// one chunk too. The chunks run concurrently only when work, the caller's
// estimate of the loop's total inner-loop element visits, reaches the
// grain; below it they run in chunk order on the calling goroutine. Pass
// math.MaxInt when every chunk is known to be heavy. A panic inside fn
// re-raises on the caller as a *PanicError.
func For(n, workers, work int, fn func(chunk, start, end int)) {
	ForMin(n, workers, MinChunk, work, fn)
}

// ForMin is For with an explicit minimum chunk size. minChunk = 1 splits
// any n >= 2, which is appropriate when each item carries substantial work
// (for example one shortest-path search per item).
func ForMin(n, workers, minChunk, work int, fn func(chunk, start, end int)) {
	pe, _ := forCore(nil, n, workers, minChunk, work, fn)
	if pe != nil {
		panic(pe)
	}
}

// ForCtx is For with early exit on context cancellation: when ctx is
// already done no chunk runs, and chunks that observe the cancellation
// before starting are skipped. It returns ctx.Err() when any chunk was
// skipped, in which case the loop's outputs are incomplete and must be
// discarded — use it only for all-or-nothing stages. A panic inside fn is
// returned as a *PanicError instead of re-raised.
func ForCtx(ctx context.Context, n, workers, work int, fn func(chunk, start, end int)) error {
	return ForMinCtx(ctx, n, workers, MinChunk, work, fn)
}

// ForMinCtx is ForCtx with an explicit minimum chunk size.
func ForMinCtx(ctx context.Context, n, workers, minChunk, work int, fn func(chunk, start, end int)) error {
	pe, cancelled := forCore(ctx, n, workers, minChunk, work, fn)
	if pe != nil {
		return pe
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// grain is the least estimated work, in inner-loop element visits, for
// which a loop forks. BenchmarkForkJoin puts an empty 2-chunk fork-join at
// about 10 µs of process CPU when the idle processors have parked between
// loops, as they do between the solver's loops (about 2.3 µs back to
// back), against under 0.1 µs inline, on a 2-vCPU x86-64 VM. The solver's
// sweeps and routing waves cost about 10 ns per estimated visit there, so a
// loop at the grain takes about 160 µs and a fork costs it at most ~6%.
const grain = 1 << 14

// forCore is the shared fork-join body. ctx may be nil (never cancelled).
// It reports the winning panic (smallest chunk index) and whether any chunk
// was skipped because ctx was done.
func forCore(ctx context.Context, n, workers, minChunk, work int, fn func(chunk, start, end int)) (*PanicError, bool) {
	if minChunk < 1 {
		minChunk = 1
	}
	if workers > n {
		workers = n
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, true
	}
	if workers <= 1 || n < workers*minChunk {
		return runChunk(0, 0, n, fn), false
	}
	chunkSize := (n + workers - 1) / workers
	if work < grain {
		return runInline(ctx, n, chunkSize, fn)
	}
	numChunks := (n + chunkSize - 1) / chunkSize
	pes := make([]*PanicError, numChunks)
	skipped := make([]bool, numChunks)
	var wg sync.WaitGroup
	chunk := 0
	for start := 0; start < n; start += chunkSize {
		end := min(start+chunkSize, n)
		wg.Add(1)
		go func(c, s, e int) {
			defer wg.Done()
			if ctx != nil && ctx.Err() != nil {
				skipped[c] = true
				return
			}
			pes[c] = runChunk(c, s, e, fn)
		}(chunk, start, end)
		chunk++
	}
	wg.Wait()
	for _, pe := range pes {
		if pe != nil {
			return pe, false
		}
	}
	for _, s := range skipped {
		if s {
			return nil, true
		}
	}
	return nil, false
}

// runInline runs the chunks of forCore's partition in chunk order on the
// calling goroutine, with the forked schedule's outcome: every chunk runs
// (and calls the hook) even after an earlier one panicked, the lowest
// panicking chunk wins, and a chunk that finds ctx done is skipped.
func runInline(ctx context.Context, n, chunkSize int, fn func(chunk, start, end int)) (first *PanicError, cancelled bool) {
	for c, start := 0, 0; start < n; c, start = c+1, start+chunkSize {
		if ctx != nil && ctx.Err() != nil {
			cancelled = true
			continue
		}
		if pe := runChunk(c, start, min(start+chunkSize, n), fn); pe != nil && first == nil {
			first = pe
		}
	}
	if first != nil {
		return first, false
	}
	return nil, cancelled
}

// NumChunks returns how many chunks For will use, for sizing partial-result
// buffers.
func NumChunks(n, workers int) int {
	return NumChunksMin(n, workers, MinChunk)
}

// NumChunksMin returns how many chunks ForMin will use for the same
// arguments.
func NumChunksMin(n, workers, minChunk int) int {
	if minChunk < 1 {
		minChunk = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < workers*minChunk {
		return 1
	}
	chunkSize := (n + workers - 1) / workers
	return (n + chunkSize - 1) / chunkSize
}
