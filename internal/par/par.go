// Package par provides the deterministic chunked fork-join helpers shared
// by the TDM assignment and routing stages. Work over [0, n) is split into
// at most MaxChunks contiguous chunks whose boundaries depend only on n and
// the minimum chunk size, never on the worker count, and callers combine
// per-chunk partial results in chunk order, so results are identical for
// every worker count.
//
// The worker count and the caller's estimate of the loop's total work, in
// rough inner-loop element visits, only decide who runs the chunks. A loop
// below one grain of work, or with one worker, runs its chunks one after
// another on the calling goroutine, because a fork-join would cost more
// processor time than it spreads; a loop at or above the grain deals its
// chunks to min(workers, chunks) goroutines in contiguous runs. Since a
// chunk's outputs depend only on its bounds, every schedule gives the same
// bytes.
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

// MaxChunks is the most chunks a loop is split into, and so the most
// goroutines one loop runs on. It is a constant, not the worker count, so
// that a reduction's per-chunk partials, and with them its floating-point
// result, are the same for every worker count.
const MaxChunks = 8

// MinChunk is the default minimum chunk size used by For and NumChunks: a
// loop of n items is split into n/MinChunk chunks, at most MaxChunks, so
// loops under 2*MinChunk = 512 cheap items (the LR inner loops of small
// instances) are not split at all. Loops with expensive items (net
// routing) should use ForMin with a smaller threshold.
const MinChunk = 256

// PanicError is a contained worker panic. When a chunk of For/ForMin
// panics, the panic is recovered on the worker goroutine and re-raised on
// the calling goroutine as a *PanicError; when several chunks panic in the
// same call, the one with the smallest chunk index wins, so the surfaced
// error is the same for every worker count. Capture converts the
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
// atomic pointer load per chunk (chunks are at most MaxChunks).
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

// For splits [0, n) into NumChunks(n) contiguous chunks and runs
// fn(chunk, start, end) once per chunk. The chunks run on up to workers
// goroutines only when work, the caller's estimate of the loop's total
// inner-loop element visits, reaches the grain; otherwise they run in chunk
// order on the calling goroutine. Pass math.MaxInt when every chunk is
// known to be heavy. A panic inside fn re-raises on the caller as a
// *PanicError.
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

// outcome is what each chunk of one loop did: its contained panic, or
// whether it was skipped because the context was done.
type outcome struct {
	pes     [MaxChunks]*PanicError
	skipped [MaxChunks]bool
}

// run runs chunks [c0, c1) of size size over [0, n) in chunk order on the
// calling goroutine. Every chunk runs (and calls the hook) even after an
// earlier one panicked; a chunk that finds ctx done is skipped.
func (o *outcome) run(ctx context.Context, c0, c1, size, n int, fn func(chunk, start, end int)) {
	for c := c0; c < c1; c++ {
		if ctx != nil && ctx.Err() != nil {
			o.skipped[c] = true
			continue
		}
		o.pes[c] = runChunk(c, c*size, min((c+1)*size, n), fn)
	}
}

// result reports the lowest panicking chunk and, when none panicked,
// whether any chunk was skipped.
func (o *outcome) result() (*PanicError, bool) {
	for _, pe := range o.pes {
		if pe != nil {
			return pe, false
		}
	}
	for _, s := range o.skipped {
		if s {
			return nil, true
		}
	}
	return nil, false
}

// forCore is the shared fork-join body. ctx may be nil (never cancelled).
// It reports the winning panic (smallest chunk index) and whether any chunk
// was skipped because ctx was done.
func forCore(ctx context.Context, n, workers, minChunk, work int, fn func(chunk, start, end int)) (*PanicError, bool) {
	if ctx != nil && ctx.Err() != nil {
		return nil, true
	}
	chunks := NumChunksMin(n, minChunk)
	if chunks == 1 {
		return runChunk(0, 0, n, fn), false
	}
	size := (n + chunks - 1) / chunks
	if workers <= 1 || work < grain {
		var o outcome
		o.run(ctx, 0, chunks, size, n, fn)
		return o.result()
	}
	return forked(ctx, chunks, min(workers, chunks), size, n, fn)
}

// forked deals the chunks to g goroutines in contiguous runs: goroutine k
// runs chunks [k*chunks/g, (k+1)*chunks/g) in order.
func forked(ctx context.Context, chunks, g, size, n int, fn func(chunk, start, end int)) (*PanicError, bool) {
	o := new(outcome)
	var wg sync.WaitGroup
	for k := 0; k < g; k++ {
		wg.Add(1)
		go func(c0, c1 int) {
			defer wg.Done()
			o.run(ctx, c0, c1, size, n, fn)
		}(k*chunks/g, (k+1)*chunks/g)
	}
	wg.Wait()
	return o.result()
}

// NumChunks returns how many chunks For will use, for sizing partial-result
// buffers.
func NumChunks(n int) int {
	return NumChunksMin(n, MinChunk)
}

// NumChunksMin returns how many chunks ForMin splits n items into, at most
// MaxChunks and depending on n and minChunk only: with c = n/minChunk
// clamped to [1, MaxChunks], as many chunks of ceil(n/c) items as cover n.
func NumChunksMin(n, minChunk int) int {
	c := min(n/max(minChunk, 1), MaxChunks)
	if c <= 1 {
		return 1
	}
	size := (n + c - 1) / c
	return (n + size - 1) / size
}
