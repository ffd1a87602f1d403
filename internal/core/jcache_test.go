package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// refEntry is the reference model's view of one JournalCache entry.
type refEntry struct {
	val       int
	k         int
	exhausted bool
	at        *model.EditJournal // journal head the value was stored at
	corner    model.Corner
	cone      *model.PinSet
	w         uint64 // watermark, mirrored for the store and fork policies
}

// refCache is a naive JournalCache: it keeps each entry's store
// position and, on every lookup, rescans the reader's whole journal back
// to it instead of trusting a watermark.
type refCache map[int]*refEntry

// valid reports whether e is exact for a reader at head j: the store
// position must be an ancestor of j, and no edit after it at e's corner
// may have its source inside e's cone.
func (e *refEntry) valid(j *model.EditJournal) bool {
	edits, ok := j.SuffixEdits(e.at, e.corner, nil)
	if !ok {
		return false
	}
	for _, ed := range edits {
		if e.cone.Contains(ed.Src) {
			return false
		}
	}
	return true
}

func (r refCache) lookup(key, k int, j *model.EditJournal) (int, Outcome) {
	e, ok := r[key]
	switch {
	case !ok:
		return 0, Absent
	case !e.valid(j):
		return 0, Stale
	}
	w := e.w
	e.w = max(e.w, j.Seq())
	switch {
	case e.k < k && !e.exhausted:
		return 0, Short
	case w < j.Seq():
		return e.val, ConeSkip
	default:
		return e.val, Hit
	}
}

func (r refCache) store(key int, e *refEntry) {
	if old, ok := r[key]; ok && old.k >= e.k && old.w >= e.at.Seq() {
		return
	}
	e.w = e.at.Seq()
	r[key] = e
}

func (r refCache) fork(atSeq uint64) refCache {
	nr := make(refCache, len(r))
	for key, e := range r {
		if e.at.Seq() > atSeq {
			continue
		}
		ne := *e
		ne.w = min(e.w, atSeq)
		nr[key] = &ne
	}
	return nr
}

// cacheLine is one cache under test with its reference twin and the
// linear journal history its readers sit on (oldest first).
type cacheLine struct {
	c    *JournalCache[int, int]
	ref  refCache
	hist []*model.EditJournal
}

// reader picks a journal head from l's history, biased to the newest:
// most queries run on the current snapshot, some on older ones still
// in flight.
func (l *cacheLine) reader(rng *rand.Rand) *model.EditJournal {
	if rng.Intn(3) > 0 {
		return l.hist[len(l.hist)-1]
	}
	return l.hist[rng.Intn(len(l.hist))]
}

// TestJournalCacheAgainstReference drives seeded random operation
// sequences — stores and lookups across budgets, journal appends at
// random corners and sources, forks at current and past heads, forks of
// forks, and stores after a fork on either side — against the naive
// reference model, requiring identical outcomes and values.
func TestJournalCacheAgainstReference(t *testing.T) {
	const nPins, nKeys = 24, 5
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cones := make([]*model.PinSet, 4)
		for i := range cones {
			cones[i] = model.NewPinSet(nPins)
			for p := 0; p < nPins; p++ {
				if rng.Intn(4) == 0 {
					cones[i].Add(model.PinID(p))
				}
			}
		}
		lines := []*cacheLine{{c: NewJournalCache[int, int](0), ref: refCache{}, hist: []*model.EditJournal{nil}}}
		nextVal := 1
		var log []string
		for op := 0; op < 300; op++ {
			li := rng.Intn(len(lines))
			l := lines[li]
			key, k := rng.Intn(nKeys), 1+rng.Intn(8)
			switch r := rng.Intn(10); {
			case r < 3: // store
				j := l.reader(rng)
				e := &refEntry{val: nextVal, k: k, exhausted: rng.Intn(4) == 0, at: j,
					corner: model.Corner(rng.Intn(2)), cone: cones[rng.Intn(len(cones))]}
				nextVal++
				l.c.Store(key, e.val, e.k, e.exhausted, j, e.corner, e.cone)
				l.ref.store(key, e)
				log = append(log, fmt.Sprintf("line %d: store key %d val %d k %d exh %v at seq %d", li, key, e.val, e.k, e.exhausted, j.Seq()))
			case r < 7: // lookup
				j := l.reader(rng)
				gotV, gotO := l.c.Lookup(key, k, j)
				wantV, wantO := l.ref.lookup(key, k, j)
				log = append(log, fmt.Sprintf("line %d: lookup key %d k %d at seq %d -> %d/%d", li, key, k, j.Seq(), gotV, gotO))
				if gotV != wantV || gotO != wantO {
					t.Fatalf("seed %d op %d: got value %d outcome %d, reference %d outcome %d\n%v",
						seed, op, gotV, gotO, wantV, wantO, log)
				}
			case r < 9: // journal append on the line's newest head
				head := l.hist[len(l.hist)-1]
				c, src := model.Corner(rng.Intn(2)), model.PinID(rng.Intn(nPins))
				l.hist = append(l.hist, head.Append(c, src, src))
				log = append(log, fmt.Sprintf("line %d: edit corner %d src %d -> seq %d", li, c, src, head.Seq()+1))
			default: // fork at a current or past head
				if len(lines) >= 6 {
					continue
				}
				at := l.reader(rng)
				// The child's edits branch off at; the parent's history
				// stays its own linear chain.
				lines = append(lines, &cacheLine{c: l.c.Fork(at.Seq()), ref: l.ref.fork(at.Seq()), hist: []*model.EditJournal{at}})
				log = append(log, fmt.Sprintf("line %d: fork at seq %d -> line %d", li, at.Seq(), len(lines)-1))
			}
			if l.c.Len() != len(l.ref) {
				t.Fatalf("seed %d op %d: %d entries, reference %d\n%v", seed, op, l.c.Len(), len(l.ref), log)
			}
		}
	}
}

// TestJournalCacheConcurrent races stores and lookups from readers at
// different heads of one journal chain (run under -race): whatever the
// interleaving of watermark advances and replacements, every served
// value must be exact for its reader.
func TestJournalCacheConcurrent(t *testing.T) {
	const nPins, nHeads = 16, 40
	rng := rand.New(rand.NewSource(1))
	cone := model.NewPinSet(nPins)
	for p := 0; p < nPins; p += 3 {
		cone.Add(model.PinID(p))
	}
	hist := []*model.EditJournal{nil}
	for i := 1; i < nHeads; i++ {
		hist = append(hist, hist[i-1].Append(model.BaseCorner, model.PinID(rng.Intn(nPins)), 0))
	}
	c := NewJournalCache[int, int](0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 2000; op++ {
				r := rng.Intn(nHeads)
				key := rng.Intn(3)
				if v, o := c.Lookup(key, 1, hist[r]); o.Served() {
					// v is the index of the head the value was stored at.
					if ref := (&refEntry{at: hist[v], cone: cone}); !ref.valid(hist[r]) {
						t.Errorf("value stored at seq %d served stale to a reader at seq %d", v, r)
						return
					}
				} else {
					c.Store(key, r, 1, false, hist[r], model.BaseCorner, cone)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestJournalCacheBound: a bounded cache never exceeds its capacity,
// and the newest store always survives its own eviction.
func TestJournalCacheBound(t *testing.T) {
	c := NewJournalCache[int, int](4)
	cone := model.NewPinSet(1)
	for key := 0; key < 10; key++ {
		c.Store(key, key, 1, false, nil, model.BaseCorner, cone)
		if c.Len() > 4 {
			t.Fatalf("after %d stores: %d entries, bound 4", key+1, c.Len())
		}
		if v, o := c.Lookup(key, 1, nil); o != Hit || v != key {
			t.Fatalf("newest store %d not served: value %d outcome %d", key, v, o)
		}
	}
}

// TestJobCacheForkKeepsRetentionCharge: a forked job cache inherits its
// parent's retention charge along with the retained propagations it
// shares, so a parent that filled the budget leaves the child no room
// to retain more.
func TestJobCacheForkKeepsRetentionCharge(t *testing.T) {
	saved := RetainMaxBytes
	defer func() { RetainMaxBytes = saved }()
	d := gen.MustGenerate(gen.Medium(3))
	e := NewEngine(d)
	setup := Options{K: 10, Mode: model.Setup}
	RetainMaxBytes = int64(len(e.jobPlan(setup))) * int64(d.NumPins()) * 64

	retained := func(c *JobCache) int {
		if m := c.ret.Load(); m != nil {
			return len(*m)
		}
		return 0
	}
	parent := NewJobCache(nil)
	mustMemo(t, e, setup, parent, nil)
	if parent.retBytes.Load() != RetainMaxBytes {
		t.Fatalf("setup jobs charged %d bytes, want the full budget %d", parent.retBytes.Load(), RetainMaxBytes)
	}
	n := retained(parent)
	child := parent.Fork(0)
	mustMemo(t, e, Options{K: 10, Mode: model.Hold}, child, nil)
	if got := retained(child); got != n {
		t.Fatalf("child retained %d hold jobs past its parent's full budget", got-n)
	}
}
