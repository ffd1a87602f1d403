package core

import (
	"sync"
	"sync/atomic"

	"fastcppr/model"
)

// Outcome classifies a JournalCache lookup. Callers count their own
// effectiveness counters from it.
type Outcome uint8

const (
	// Absent: no entry under the key.
	Absent Outcome = iota
	// Stale: the entry cannot serve this reader — a journaled edit since
	// its watermark lands in its cone at its corner, or it was computed
	// at a later journal position than the reader's.
	Stale
	// Short: the entry is exact for the reader but was computed at a
	// smaller budget whose stream had not run dry.
	Short
	// Hit: the entry serves, already validated at the reader's position.
	Hit
	// ConeSkip: the entry serves across at least one journaled edit the
	// journal proves cannot reach its cone.
	ConeSkip
)

// Served reports whether the lookup returned a usable value.
func (o Outcome) Served() bool { return o == Hit || o == ConeSkip }

// JournalCache is the one journal-validated cache rule shared by the
// whole-report query memo and the per-job candidate cache. Every entry
// is positioned on the edit journal:
//
//   - storeSeq, immutable, is the journal sequence it was computed at;
//   - seq, its watermark, is the latest sequence at which the journal
//     proved no edit in (storeSeq, seq] lands a source pin inside cone
//     at corner. It only moves forward (CAS-max), so a racing reader can
//     shorten a later journal walk but never extend validity.
//
// An entry serves a reader at sequence g iff storeSeq <= g and no edit
// in (seq, g] is dirty for it (EditJournal.DirtySince). Budgets follow
// the prefix property: an entry computed at budget k serves any k' <= k,
// and an exhausted entry (its stream ran dry before k) serves any k'.
//
// Reads are lock-free: the index is an atomic pointer to an immutable
// map, and entries are immutable after publication except for the
// atomic watermark. Writers copy the map under mu and publish the
// successor atomically. One cache follows one linear journal chain;
// Fork starts the cache of a diverging chain. PROOFS.md ("Journal-
// validated caches") gives the argument.
type JournalCache[K comparable, V any] struct {
	idx atomic.Pointer[map[K]*journalEntry[V]]
	mu  sync.Mutex // serializes copy-on-write publication
	// max bounds the entry count (0: unbounded); at capacity a store of
	// a new key evicts an arbitrary entry.
	max int
}

// journalEntry is one cached value and its journal position.
type journalEntry[V any] struct {
	val       V
	k         int
	exhausted bool
	corner    model.Corner
	cone      *model.PinSet
	storeSeq  uint64
	seq       atomic.Uint64
}

// advanceSeq moves the watermark forward to seq, never backward:
// concurrent lookups may validate against different journal positions,
// and the watermark must not regress past a validation another reader
// already proved.
func (e *journalEntry[V]) advanceSeq(seq uint64) {
	for {
		cur := e.seq.Load()
		if cur >= seq || e.seq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// NewJournalCache returns an empty cache holding at most max entries
// (0: unbounded).
func NewJournalCache[K comparable, V any](max int) *JournalCache[K, V] {
	c := &JournalCache[K, V]{max: max}
	empty := make(map[K]*journalEntry[V])
	c.idx.Store(&empty)
	return c
}

// Len returns the number of entries, stale ones included.
func (c *JournalCache[K, V]) Len() int { return len(*c.idx.Load()) }

// Lookup serves key at budget k to a reader at journal head j. A valid
// entry's watermark advances to j's sequence whether or not it covers
// k. Stale entries stay in place for the next Store to replace.
func (c *JournalCache[K, V]) Lookup(key K, k int, j *model.EditJournal) (V, Outcome) {
	var zero V
	e, ok := (*c.idx.Load())[key]
	if !ok {
		return zero, Absent
	}
	seq := j.Seq()
	w := e.seq.Load()
	if e.storeSeq > seq || j.DirtySince(w, e.corner, e.cone) {
		return zero, Stale
	}
	e.advanceSeq(seq)
	if e.k < k && !e.exhausted {
		return zero, Short
	}
	if w < seq {
		return e.val, ConeSkip
	}
	return e.val, Hit
}

// Store records v, computed at budget k from a run at journal head j,
// with cone at corner as its footprint. A racing incumbent is kept when
// it covers at least budget k and is no older on the journal; anything
// else — an absent, stale, shorter or older incumbent — is replaced.
// Either choice is sound, since every entry carries its own position.
func (c *JournalCache[K, V]) Store(key K, v V, k int, exhausted bool, j *model.EditJournal, corner model.Corner, cone *model.PinSet) {
	seq := j.Seq()
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := *c.idx.Load()
	if e, ok := cur[key]; ok && e.k >= k && e.seq.Load() >= seq {
		return
	}
	next := make(map[K]*journalEntry[V], len(cur)+1)
	for ck, ce := range cur {
		next[ck] = ce
	}
	if _, ok := next[key]; !ok && c.max > 0 && len(next) >= c.max {
		for victim := range next {
			delete(next, victim)
			break
		}
	}
	e := &journalEntry[V]{val: v, k: k, exhausted: exhausted, corner: corner, cone: cone, storeSeq: seq}
	e.seq.Store(seq)
	next[key] = e
	c.idx.Store(&next)
}

// Fork returns an isolated copy for a chain that diverges from this
// one at journal sequence atSeq. Entries stored past atSeq are dropped:
// they reflect parent edits the child never sees. Surviving entries
// share their values, with watermarks clamped to atSeq: a watermark is
// a proof along the parent's chain, and only the prefix up to atSeq is
// shared with the child.
func (c *JournalCache[K, V]) Fork(atSeq uint64) *JournalCache[K, V] {
	cur := *c.idx.Load()
	next := make(map[K]*journalEntry[V], len(cur))
	for key, e := range cur {
		if e.storeSeq > atSeq {
			continue
		}
		ne := &journalEntry[V]{val: e.val, k: e.k, exhausted: e.exhausted, corner: e.corner, cone: e.cone, storeSeq: e.storeSeq}
		ne.seq.Store(min(e.seq.Load(), atSeq))
		next[key] = ne
	}
	nc := &JournalCache[K, V]{max: c.max}
	nc.idx.Store(&next)
	return nc
}
