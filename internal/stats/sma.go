// Package stats provides the small numeric utilities used by the Lagrangian
// multiplier update strategy of Sec. IV-C of the paper: a fixed-width simple
// moving average (SMA) window with streaming mean and standard deviation, and
// the Sigmoid function.
package stats

import "math"

// Window is a fixed-capacity sliding window over a series of float64 samples.
// It maintains the simple moving average and the (population) standard
// deviation of the most recent samples in O(1) per Push.
//
// The zero value is not usable; construct with NewWindow.
type Window struct {
	buf   []float64
	head  int // index of the oldest sample
	count int // number of valid samples, <= len(buf)
	sum   float64
	sumSq float64
}

// NewWindow returns a Window holding at most width samples.
// It panics if width < 1.
func NewWindow(width int) *Window {
	if width < 1 {
		panic("stats: window width must be >= 1")
	}
	return &Window{buf: make([]float64, width)}
}

// Len returns the number of samples currently in the window.
func (w *Window) Len() int { return w.count }

// Full reports whether the window holds Width samples.
func (w *Window) Full() bool { return w.count == len(w.buf) }

// Push inserts a sample, evicting the oldest sample if the window is full.
func (w *Window) Push(x float64) {
	if w.count == len(w.buf) {
		old := w.buf[w.head]
		w.sum -= old
		w.sumSq -= old * old
		w.buf[w.head] = x
		w.head = (w.head + 1) % len(w.buf)
	} else {
		w.buf[(w.head+w.count)%len(w.buf)] = x
		w.count++
	}
	w.sum += x
	w.sumSq += x * x
}

// Mean returns the simple moving average of the samples in the window.
// It returns 0 when the window is empty.
func (w *Window) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// StdDev returns the population standard deviation of the samples in the
// window. It returns 0 when the window holds fewer than two samples.
//
// To bound accumulated floating-point error from the streaming sums, the
// variance is recomputed exactly from the buffered samples whenever the
// streaming estimate turns (slightly) negative.
func (w *Window) StdDev() float64 {
	if w.count < 2 {
		return 0
	}
	n := float64(w.count)
	mean := w.sum / n
	variance := w.sumSq/n - mean*mean
	if variance < 0 {
		variance = w.exactVariance(mean)
	}
	return math.Sqrt(variance)
}

func (w *Window) exactVariance(mean float64) float64 {
	var acc float64
	for i := 0; i < w.count; i++ {
		d := w.buf[(w.head+i)%len(w.buf)] - mean
		acc += d * d
	}
	return acc / float64(w.count)
}

// Reset discards all samples, keeping the capacity.
func (w *Window) Reset() {
	w.head, w.count, w.sum, w.sumSq = 0, 0, 0, 0
}

// Samples appends the window contents, oldest first, to dst and returns the
// extended slice. It is intended for tests and diagnostics.
func (w *Window) Samples(dst []float64) []float64 {
	for i := 0; i < w.count; i++ {
		dst = append(dst, w.buf[(w.head+i)%len(w.buf)])
	}
	return dst
}

// Sigmoid returns 1/(1+e^(-x)), the logistic function used to smooth the
// acceleration factor K in Eq. (16) of the paper.
func Sigmoid(x float64) float64 {
	// For large |x| the naive form overflows/underflows harmlessly in
	// float64, but writing both branches keeps the result exact at the
	// saturation ends.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
