package par

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// recoverPanicError runs fn and returns the *PanicError it panics with, or
// nil if it returns normally.
func recoverPanicError(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		pe, ok = r.(*PanicError)
		if !ok {
			t.Fatalf("panic value is %T, want *PanicError", r)
		}
	}()
	fn()
	return nil
}

func TestForMinPanicFirstChunk(t *testing.T) {
	pe := recoverPanicError(t, func() {
		ForMin(8, 4, 1, math.MaxInt, func(chunk, start, end int) {
			if chunk == 0 {
				panic("boom-0")
			}
		})
	})
	if pe == nil {
		t.Fatal("expected contained panic")
	}
	if pe.Chunk != 0 || pe.Value != "boom-0" {
		t.Fatalf("got chunk %d value %v", pe.Chunk, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	if !strings.Contains(pe.Error(), "chunk 0") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestForMinPanicLastChunk(t *testing.T) {
	pe := recoverPanicError(t, func() {
		ForMin(8, 4, 1, math.MaxInt, func(chunk, start, end int) {
			if chunk == 3 {
				panic("boom-3")
			}
		})
	})
	if pe == nil || pe.Chunk != 3 || pe.Value != "boom-3" {
		t.Fatalf("got %+v", pe)
	}
}

func TestForMinPanicLowestChunkWins(t *testing.T) {
	// Every chunk panics: the surfaced error must deterministically be the
	// lowest chunk index regardless of goroutine scheduling.
	for trial := 0; trial < 20; trial++ {
		pe := recoverPanicError(t, func() {
			ForMin(16, 4, 1, math.MaxInt, func(chunk, start, end int) {
				panic(chunk)
			})
		})
		if pe == nil || pe.Chunk != 0 || pe.Value != 0 {
			t.Fatalf("trial %d: got %+v", trial, pe)
		}
	}
}

func TestForMinPanicInline(t *testing.T) {
	// workers=1 runs inline; the panic must still surface as *PanicError so
	// behavior is uniform across worker counts.
	pe := recoverPanicError(t, func() {
		ForMin(8, 1, 1, math.MaxInt, func(chunk, start, end int) { panic("seq") })
	})
	if pe == nil || pe.Chunk != 0 || pe.Value != "seq" {
		t.Fatalf("got %+v", pe)
	}
}

func TestNestedForMinKeepsInnermostAttribution(t *testing.T) {
	pe := recoverPanicError(t, func() {
		ForMin(4, 2, 1, math.MaxInt, func(chunk, start, end int) {
			ForMin(4, 2, 1, math.MaxInt, func(inner, s, e int) {
				if inner == 1 {
					panic("nested")
				}
			})
		})
	})
	if pe == nil {
		t.Fatal("expected contained panic")
	}
	// The inner ForMin wraps the panic with inner chunk 1; the outer chunk
	// must pass it through rather than re-wrap it.
	if pe.Chunk != 1 || pe.Value != "nested" {
		t.Fatalf("got chunk %d value %v, want innermost chunk 1", pe.Chunk, pe.Value)
	}
}

func TestCapture(t *testing.T) {
	if err := Capture(func() error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	sentinel := errors.New("plain")
	if err := Capture(func() error { return sentinel }); err != sentinel {
		t.Fatalf("error passthrough: %v", err)
	}
	err := Capture(func() error {
		ForMin(8, 4, 1, math.MaxInt, func(chunk, start, end int) {
			if chunk == 2 {
				panic("pe")
			}
		})
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Chunk != 2 {
		t.Fatalf("expected chunk-2 PanicError, got %v", err)
	}
	err = Capture(func() error { panic("raw") })
	if !errors.As(err, &pe) || pe.Chunk != -1 || pe.Value != "raw" {
		t.Fatalf("expected Chunk=-1 PanicError, got %v", err)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForCtx(ctx, 1000, 4, math.MaxInt, func(chunk, start, end int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("chunk ran despite cancelled context")
	}
}

func TestForCtxCompletesWithoutCancel(t *testing.T) {
	var count int64
	err := ForMinCtx(context.Background(), 1000, 4, 1, math.MaxInt, func(chunk, start, end int) {
		atomic.AddInt64(&count, int64(end-start))
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("covered %d of 1000", count)
	}
}

func TestForCtxMidCancelSkipsAndReports(t *testing.T) {
	// Cancel from inside the first chunk that runs: some later chunk may be
	// skipped; if any is, the call must report the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int64
	err := ForMinCtx(ctx, 4096, 4, 1, math.MaxInt, func(chunk, start, end int) {
		cancel()
		atomic.AddInt64(&ran, 1)
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if err == nil && atomic.LoadInt64(&ran) != int64(NumChunksMin(4096, 1)) {
		t.Fatalf("nil error but only %d chunks ran", ran)
	}
}

func TestForCtxPanicReturnedAsError(t *testing.T) {
	err := ForMinCtx(context.Background(), 8, 4, 1, math.MaxInt, func(chunk, start, end int) {
		if chunk == 1 {
			panic("ctx-pe")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Chunk != 1 {
		t.Fatalf("got %v", err)
	}
}

func TestChunkHookInjection(t *testing.T) {
	var calls int64
	SetChunkHook(func(chunk int) {
		if atomic.AddInt64(&calls, 1) == 2 {
			panic("injected")
		}
	})
	defer SetChunkHook(nil)
	pe := recoverPanicError(t, func() {
		ForMin(8, 4, 1, math.MaxInt, func(chunk, start, end int) {})
	})
	if pe == nil || pe.Value != "injected" {
		t.Fatalf("got %+v", pe)
	}
	// With the hook cleared the same loop runs clean.
	SetChunkHook(nil)
	ForMin(8, 4, 1, math.MaxInt, func(chunk, start, end int) {})
}
