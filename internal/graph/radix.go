package graph

import "math/bits"

// radixQueue is a monotone priority queue (radix heap) over packed
// (Primary, Hops) keys. It relies on the Dijkstra usage pattern: every
// pushed key is >= the key of the last popped minimum, which lets items be
// filed into buckets by the position of the highest bit in which their key
// differs from that minimum. An item only ever migrates to lower buckets, so
// the total work is O(pushes × word size) in the worst case and close to
// O(pushes) on the small spreads of congestion costs.
//
// Pop returns an item with the minimum key; the order among equal keys is
// unspecified, which is sound because the relaxation step resolves
// equal-cost ties canonically (see ShortestPath).
type radixQueue struct {
	hopBits uint   // low bits of the packed key holding Cost.Hops
	maxPri  uint64 // largest Primary representable in the remaining bits
	last    uint64 // key of the last popped minimum
	len     int
	mask    [2]uint64 // occupancy bitmap over buckets 0..64
	buckets [65][]radixItem
}

type radixItem struct {
	key    uint64
	vertex int32
}

// newRadixQueue sizes the key packing for a graph of n vertices: stored path
// costs always describe simple paths (a relaxation that revisits a vertex
// cannot beat the cost already recorded there, because every edge costs at
// least (0,1)), so Hops <= n and fits in bits.Len(n) bits.
func newRadixQueue(n int) *radixQueue {
	hb := uint(bits.Len(uint(n)))
	if hb == 0 {
		hb = 1
	}
	return &radixQueue{hopBits: hb, maxPri: ^uint64(0) >> hb}
}

// pack folds c into a single key preserving the lexicographic (Primary,
// Hops) order. Costs beyond the representable range cannot occur in the
// routers: a path's Primary is at most its hop count times the largest edge
// cost, and even the baseline routers' usage² and (1+history)(1+usage)
// edge costs stay below 2^42 at a million nets, far below 2^(64-hopBits). A
// caller feeding larger costs is a programming error, not a silent
// reordering.
func (q *radixQueue) pack(c Cost) uint64 {
	if c.Primary > q.maxPri {
		panic(errKeyOverflow)
	}
	return c.Primary<<q.hopBits | uint64(c.Hops)
}

// errKeyOverflow is the panic value of a Primary cost beyond the packed
// key's range, raised by pack and by the search's relaxation check.
const errKeyOverflow = "graph: radix queue primary cost overflows packed key"

// reset empties the queue, truncating only the buckets the occupancy
// bitmap marks: a search that stops at its target leaves a few.
func (q *radixQueue) reset() {
	for lo := q.mask[0]; lo != 0; lo &= lo - 1 {
		b := bits.TrailingZeros64(lo)
		q.buckets[b] = q.buckets[b][:0]
	}
	q.buckets[64] = q.buckets[64][:0]
	q.last = 0
	q.len = 0
	q.mask[0], q.mask[1] = 0, 0
}

// bucketFor files a key relative to the current minimum: equal keys land in
// bucket 0, others in 1 + the index of the highest differing bit.
func (q *radixQueue) bucketFor(key uint64) int {
	return bits.Len64(key ^ q.last)
}

func (q *radixQueue) push(key uint64, v int32) {
	b := q.bucketFor(key)
	q.buckets[b] = append(q.buckets[b], radixItem{key: key, vertex: v})
	q.mask[b>>6] |= 1 << (uint(b) & 63)
	q.len++
}

// pop removes and returns an item with the minimum key.
func (q *radixQueue) pop() radixItem {
	var b int
	if lo := q.mask[0]; lo != 0 {
		b = bits.TrailingZeros64(lo)
	} else {
		b = 64
	}
	items := q.buckets[b]
	if b == 0 {
		// Bucket 0 holds only keys equal to the last minimum: any order.
		it := items[len(items)-1]
		items = items[:len(items)-1]
		q.buckets[0] = items
		if len(items) == 0 {
			q.mask[0] &^= 1
		}
		q.len--
		return it
	}
	// Find the new minimum, adopt it as the reference, and redistribute the
	// remaining items; each lands in a strictly lower bucket because it
	// shares all bits above b with the new minimum.
	mi := 0
	for i := 1; i < len(items); i++ {
		if items[i].key < items[mi].key {
			mi = i
		}
	}
	min := items[mi]
	q.last = min.key
	for i, it := range items {
		if i == mi {
			continue
		}
		nb := q.bucketFor(it.key)
		q.buckets[nb] = append(q.buckets[nb], it)
		q.mask[nb>>6] |= 1 << (uint(nb) & 63)
	}
	q.buckets[b] = items[:0]
	q.mask[b>>6] &^= 1 << (uint(b) & 63)
	q.len--
	return min
}
