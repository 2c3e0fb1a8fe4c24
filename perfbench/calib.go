package main

import (
	"math/rand"
	"runtime"
	"time"
)

// Host-speed calibration. On a shared virtual machine even the processor
// time of the same work moves by tens of percent from minute to minute with
// what the neighbours run (shared caches, memory bandwidth, shared cores).
// So right after every measured operation and every set-up repetition the
// benchmark runs a fixed calibration kernel, shortest paths with a binary
// heap on a fixed random graph (the kind of work the router does), and
// rescales the work's processor time by refKernel over the kernel's own time
// around it. A reported millisecond is a millisecond of processor time on a
// host where the kernel takes refKernel; the kernel never changes, so the
// figures of two versions of the program compare.

// refKernel is the kernel's processor time on the reference host.
const refKernel = 5 * time.Millisecond

const (
	calVertices = 3000 // vertices of the calibration graph
	calDegree   = 5    // random edges drawn per vertex (each added both ways)
	calSources  = 7    // shortest-path trees per kernel run
)

type calArc struct {
	to int32
	w  float64
}

type calItem struct {
	v int32
	d float64
}

// calState is the kernel's graph and scratch, made once so that a kernel run
// allocates nothing and so triggers no garbage-collection work of its own.
type calState struct {
	adj  [][]calArc
	dist []float64
	heap []calItem
	sink float64
}

var cal = newCalState()

func newCalState() *calState {
	rng := rand.New(rand.NewSource(1))
	c := &calState{adj: make([][]calArc, calVertices), dist: make([]float64, calVertices)}
	for u := range c.adj {
		for k := 0; k < calDegree; k++ {
			v, w := rng.Intn(calVertices), rng.Float64()
			c.adj[u] = append(c.adj[u], calArc{int32(v), w})
			c.adj[v] = append(c.adj[v], calArc{int32(u), w})
		}
	}
	c.heap = make([]calItem, 0, calVertices*calDegree*2)
	return c
}

// calibrate runs the kernel once on a locked thread and returns that
// thread's processor time for it, which excludes the garbage collector's
// background work on other threads.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	for src := 0; src < calSources; src++ {
		cal.shortestPaths(src)
	}
	return threadCPU() - t0
}

// shortestPaths is Dijkstra's algorithm from src with a lazy-deletion
// binary heap.
func (c *calState) shortestPaths(src int) {
	for i := range c.dist {
		c.dist[i] = 1e300
	}
	c.dist[src] = 0
	h := append(c.heap[:0], calItem{int32(src), 0})
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; { // sift down
			m, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && h[l].d < h[m].d {
				m = l
			}
			if r < len(h) && h[r].d < h[m].d {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		if top.d > c.dist[top.v] {
			continue
		}
		for _, a := range c.adj[top.v] {
			nd := top.d + a.w
			if nd >= c.dist[a.to] {
				continue
			}
			c.dist[a.to] = nd
			h = append(h, calItem{a.to, nd})
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
	}
	c.heap = h
	c.sink += c.dist[len(c.dist)-1]
}

// recalibrate runs the kernel and returns the mean of its time now and at
// the previous call: the host's speed around the work done in between.
func (b *bench) recalibrate() time.Duration {
	d := calibrate()
	prev := b.lastCal
	if prev == 0 {
		prev = d
	}
	b.lastCal = d
	b.cals = append(b.cals, d)
	return (prev + d) / 2
}

// scaled returns processor time d in milliseconds at the reference host's
// speed, given the kernel's time around it.
func scaled(d, around time.Duration) float64 {
	return ms(d) * float64(refKernel) / float64(around)
}
