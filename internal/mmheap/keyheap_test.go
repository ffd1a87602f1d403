package mmheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyHeapAgainstGenericHeap(t *testing.T) {
	// The key heap must behave exactly like the generic heap under a
	// long random op sequence.
	rng := rand.New(rand.NewSource(4))
	kh := NewKey[int]()
	gh := New(func(a, b int64) bool { return a < b })
	for op := 0; op < 8000; op++ {
		switch r := rng.Intn(5); {
		case r <= 2 || gh.Len() == 0:
			v := int64(rng.Intn(500))
			kh.Push(v, int(v))
			gh.Push(v)
		case r == 3:
			a, okA := kh.PopMin()
			b, okB := gh.PopMin()
			if okA != okB || a.K != b {
				t.Fatalf("op %d: PopMin %v/%v vs %v/%v", op, a.K, okA, b, okB)
			}
			if int64(a.V) != a.K {
				t.Fatalf("op %d: payload desynced", op)
			}
		default:
			a, okA := kh.PopMax()
			b, okB := gh.PopMax()
			if okA != okB || a.K != b {
				t.Fatalf("op %d: PopMax %v/%v vs %v/%v", op, a.K, okA, b, okB)
			}
		}
		if kh.Len() != gh.Len() {
			t.Fatalf("op %d: Len %d vs %d", op, kh.Len(), gh.Len())
		}
		km, okK := kh.Min()
		gm, okG := gh.Min()
		if okK != okG || (okK && km.K != gm) {
			t.Fatalf("op %d: Min mismatch", op)
		}
		kx, okK := kh.MaxKey()
		gx, okG := gh.Max()
		if okK != okG || (okK && kx != gx) {
			t.Fatalf("op %d: Max mismatch", op)
		}
	}
}

func TestKeyHeapEmpty(t *testing.T) {
	h := NewKey[string]()
	if _, ok := h.PopMin(); ok {
		t.Error("PopMin on empty")
	}
	if _, ok := h.PopMax(); ok {
		t.Error("PopMax on empty")
	}
	if _, ok := h.Min(); ok {
		t.Error("Min on empty")
	}
	if _, ok := h.MaxKey(); ok {
		t.Error("MaxKey on empty")
	}
}

func TestKeyHeapBounded(t *testing.T) {
	h := NewKey[int]()
	for i := 20; i > 0; i-- {
		h.PushBounded(int64(i), i, 6)
	}
	if h.Len() != 6 {
		t.Fatalf("Len = %d", h.Len())
	}
	for want := 1; want <= 6; want++ {
		kv, _ := h.PopMin()
		if kv.K != int64(want) || kv.V != want {
			t.Fatalf("PopMin = %v, want %d", kv, want)
		}
	}
	if h.PushBounded(1, 1, 0) {
		t.Error("bound 0 accepted")
	}
}

func TestKeyHeapReset(t *testing.T) {
	h := NewKey[*int]()
	x := 5
	h.Push(1, &x)
	h.Reset()
	if h.Len() != 0 {
		t.Error("Reset did not clear")
	}
	if _, ok := h.PopMin(); ok {
		t.Error("PopMin after Reset")
	}
}

func TestKeyHeapQuickSorted(t *testing.T) {
	f := func(vals []int32) bool {
		h := NewKey[struct{}]()
		ref := make([]int64, 0, len(vals))
		for _, v := range vals {
			h.Push(int64(v), struct{}{})
			ref = append(ref, int64(v))
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for _, want := range ref {
			kv, ok := h.PopMin()
			if !ok || kv.K != want {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkKeyHeapPushBounded(b *testing.B) {
	h := NewKey[int]()
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PushBounded(vals[i%len(vals)], i, 256)
	}
}

// TestKeyHeapTieOrder: with many equal keys, elements pop in (K, T)
// order from both ends, and PushBoundedTie keeps exactly the bound
// smallest pairs, whatever the push order.
func TestKeyHeapTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type pair struct {
		k int64
		t uint64
	}
	less := func(a, b pair) bool { return a.k < b.k || a.k == b.k && a.t < b.t }
	for rep := 0; rep < 50; rep++ {
		n := 1 + rng.Intn(200)
		bound := 1 + rng.Intn(n)
		var all []pair
		h := NewKey[pair]()
		for _, i := range rng.Perm(n) {
			p := pair{int64(rng.Intn(4)), uint64(i)} // distinct T, few K
			all = append(all, p)
			if h.Admits(p.k, p.t, bound) != h.PushBoundedTie(p.k, p.t, p, bound) {
				t.Fatalf("rep %d: Admits disagrees with PushBoundedTie for %v", rep, p)
			}
		}
		sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
		want := all[:bound]
		if mx, _ := h.Max(); mx.V != want[bound-1] {
			t.Fatalf("rep %d: Max %v, want %v", rep, mx.V, want[bound-1])
		}
		for i, w := range want {
			kv, ok := h.PopMin()
			if !ok || kv.V != w || kv.K != w.k || kv.T != w.t {
				t.Fatalf("rep %d pop %d: got %+v, want %v", rep, i, kv, w)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("rep %d: %d elements left", rep, h.Len())
		}
	}
}
