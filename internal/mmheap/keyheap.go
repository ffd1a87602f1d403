package mmheap

// KV pairs an int64 ordering key and a tie key with a payload value.
// Elements order by K, then by T: equal-K elements with distinct T have
// a total order, so which of them pops first does not depend on the
// heap's push and pop history. Push and PushBounded use T = 0.
type KV[V any] struct {
	K int64
	T uint64
	V V
}

// kvLess orders a strictly before b by (K, T).
func kvLess[V any](a, b *KV[V]) bool {
	return a.K < b.K || a.K == b.K && a.T < b.T
}

// KeyHeap is a min-max heap specialised for int64 keys. It implements the
// same Atkinson et al. structure as Heap but with inline key comparisons,
// which removes the indirect comparator calls from the hot path of the
// path searches (the candidate heaps perform millions of comparisons per
// top-10K query).
type KeyHeap[V any] struct {
	a []KV[V]
}

// NewKey returns an empty key heap.
func NewKey[V any]() *KeyHeap[V] {
	return &KeyHeap[V]{}
}

// Len returns the number of elements.
func (h *KeyHeap[V]) Len() int { return len(h.a) }

// Reset discards all elements but keeps the backing storage.
func (h *KeyHeap[V]) Reset() {
	var zero KV[V]
	for i := range h.a {
		h.a[i] = zero // release payload references
	}
	h.a = h.a[:0]
}

// kcmp orders element a before element b on a min (or max) level.
func kcmp[V any](min bool, a, b *KV[V]) bool {
	if min {
		return kvLess(a, b)
	}
	return kvLess(b, a)
}

// Push inserts an element with tie key 0.
func (h *KeyHeap[V]) Push(k int64, v V) { h.PushTie(k, 0, v) }

// PushTie inserts an element with tie key t.
func (h *KeyHeap[V]) PushTie(k int64, t uint64, v V) {
	h.a = append(h.a, KV[V]{K: k, T: t, V: v})
	i := len(h.a) - 1
	if i == 0 {
		return
	}
	p := (i - 1) / 2
	if onMinLevel(i) {
		if kvLess(&h.a[p], &h.a[i]) {
			h.a[p], h.a[i] = h.a[i], h.a[p]
			h.bubbleUp(p, false)
		} else {
			h.bubbleUp(i, true)
		}
	} else {
		if kvLess(&h.a[i], &h.a[p]) {
			h.a[p], h.a[i] = h.a[i], h.a[p]
			h.bubbleUp(p, true)
		} else {
			h.bubbleUp(i, false)
		}
	}
}

func (h *KeyHeap[V]) bubbleUp(i int, min bool) {
	for i > 2 {
		g := ((i-1)/2 - 1) / 2
		if kcmp(min, &h.a[i], &h.a[g]) {
			h.a[i], h.a[g] = h.a[g], h.a[i]
			i = g
		} else {
			return
		}
	}
}

// Min returns the smallest element without removing it.
func (h *KeyHeap[V]) Min() (KV[V], bool) {
	if len(h.a) == 0 {
		return KV[V]{}, false
	}
	return h.a[0], true
}

// maxIndex returns the index of the largest element of a non-empty heap.
func (h *KeyHeap[V]) maxIndex() int {
	switch len(h.a) {
	case 1:
		return 0
	case 2:
		return 1
	}
	if kvLess(&h.a[1], &h.a[2]) {
		return 2
	}
	return 1
}

// Max returns the largest element without removing it.
func (h *KeyHeap[V]) Max() (KV[V], bool) {
	if len(h.a) == 0 {
		return KV[V]{}, false
	}
	return h.a[h.maxIndex()], true
}

// MaxKey returns the largest key, or ok=false when empty.
func (h *KeyHeap[V]) MaxKey() (int64, bool) {
	kv, ok := h.Max()
	return kv.K, ok
}

// PopMin removes and returns the smallest element.
func (h *KeyHeap[V]) PopMin() (KV[V], bool) {
	var zero KV[V]
	n := len(h.a)
	if n == 0 {
		return zero, false
	}
	x := h.a[0]
	last := n - 1
	h.a[0] = h.a[last]
	h.a[last] = zero
	h.a = h.a[:last]
	if last > 0 {
		h.trickleDown(0, true)
	}
	return x, true
}

// PopMax removes and returns the largest element.
func (h *KeyHeap[V]) PopMax() (KV[V], bool) {
	var zero KV[V]
	n := len(h.a)
	switch n {
	case 0:
		return zero, false
	case 1:
		x := h.a[0]
		h.a[0] = zero
		h.a = h.a[:0]
		return x, true
	case 2:
		x := h.a[1]
		h.a[1] = zero
		h.a = h.a[:1]
		return x, true
	}
	i := 1
	if kvLess(&h.a[1], &h.a[2]) {
		i = 2
	}
	x := h.a[i]
	last := n - 1
	if i != last {
		h.a[i] = h.a[last]
	}
	h.a[last] = zero
	h.a = h.a[:last]
	if i < last {
		h.trickleDown(i, false)
	}
	return x, true
}

// PushBounded inserts (k, v) with tie key 0 into a heap keeping at most
// bound smallest elements; see Heap.PushBounded for the exact semantics.
func (h *KeyHeap[V]) PushBounded(k int64, v V, bound int) bool {
	return h.PushBoundedTie(k, 0, v, bound)
}

// Admits reports whether PushBoundedTie(k, t, ·, bound) would insert:
// the heap holds fewer than bound elements, or (k, t) orders strictly
// before its maximum. Callers use it to skip building a payload the
// heap would reject.
func (h *KeyHeap[V]) Admits(k int64, t uint64, bound int) bool {
	return bound > 0 && (len(h.a) < bound || h.beatsMax(k, t))
}

// beatsMax reports whether (k, t) orders strictly before the maximum of
// a non-empty heap.
func (h *KeyHeap[V]) beatsMax(k int64, t uint64) bool {
	m := &h.a[h.maxIndex()]
	return k < m.K || k == m.K && t < m.T
}

// PushBoundedTie is PushBounded with tie key t: the heap keeps the bound
// smallest elements under the (K, T) order.
func (h *KeyHeap[V]) PushBoundedTie(k int64, t uint64, v V, bound int) bool {
	if bound <= 0 {
		return false
	}
	if len(h.a) >= bound {
		if !h.beatsMax(k, t) {
			return false
		}
		for len(h.a) >= bound {
			h.PopMax()
		}
	}
	h.PushTie(k, t, v)
	return true
}

func (h *KeyHeap[V]) trickleDown(i int, min bool) {
	n := len(h.a)
	for {
		best := -1
		c1, c2 := 2*i+1, 2*i+2
		for _, j := range [6]int{c1, c2, 2*c1 + 1, 2*c1 + 2, 2*c2 + 1, 2*c2 + 2} {
			if j < n && (best < 0 || kcmp(min, &h.a[j], &h.a[best])) {
				best = j
			}
		}
		if best < 0 {
			return
		}
		if best <= c2 {
			if kcmp(min, &h.a[best], &h.a[i]) {
				h.a[best], h.a[i] = h.a[i], h.a[best]
			}
			return
		}
		if !kcmp(min, &h.a[best], &h.a[i]) {
			return
		}
		h.a[best], h.a[i] = h.a[i], h.a[best]
		p := (best - 1) / 2
		if kcmp(min, &h.a[p], &h.a[best]) {
			h.a[best], h.a[p] = h.a[p], h.a[best]
		}
		i = best
	}
}
