package sta

import (
	"math/bits"
	"sort"
	"sync"

	"fastcppr/model"
)

// sparseParGrain is the minimum live-pin count at which a barrier block
// is worth fanning out: below it the leader relaxes the block serially
// (the exact RunSparse inner loop), above it the block is split across
// workers. A variable so tests can force the parallel path on small
// designs.
var sparseParGrain = 512

// parOffer is one buffered arc relaxation: the sink pin and the already
// delay-shifted tuples to offer it. Buffering the finished tuples (not
// the source) keeps the apply phase a pure replay — no delay lookups, no
// ordering decisions.
type parOffer struct {
	to   model.PinID
	a, b Tuple
}

// parScratch holds RunSparseParallel's per-Prop reusable state: the
// per-(worker, owner) offer buffers, the drained live list of the block
// in flight, and the per-owner frontier bookkeeping the leader folds in
// at each barrier. Retained on the Prop so a pooled scratch never
// re-allocates across blocks or runs.
type parScratch struct {
	bufs    [][][]parOffer // bufs[worker][owner]: offers worker relaxed into owner's shard
	live    []int32        // topological indices of the block being drained
	added   []int          // per-owner count of pins first-touched in the apply phase
	minWord []int          // per-owner lowest frontier word written
}

// parPrep sizes the scratch for the given worker count.
func (p *Prop) parPrep(threads int) *parScratch {
	ps := p.par
	if ps == nil {
		ps = new(parScratch)
		p.par = ps
	}
	if len(ps.bufs) < threads {
		ps.bufs = make([][][]parOffer, threads)
		for i := range ps.bufs {
			ps.bufs[i] = make([][]parOffer, threads)
		}
		ps.added = make([]int, threads)
		ps.minWord = make([]int, threads)
	}
	return ps
}

// RunSparseParallel is RunSparse partitioned across threads: the frontier
// is drained one barrier block (model.Design.TopoBlocks) at a time, and
// because no arc connects two pins of a block, the block's live pins can
// be relaxed concurrently. Each block runs in two phases:
//
//   - relax: workers take contiguous ascending segments of the block's
//     live list and buffer every arc offer, already delay-shifted, into
//     a per-(worker, owner) hand-off buffer — no shared state is written.
//     The owner of a sink pin is fixed by its topological index's
//     frontier WORD ((index/64) mod workers), so ownership partitions
//     both the slot array and the frontier bitset word-exclusively.
//   - apply: each owner replays the buffers targeting its shard in
//     worker order. Workers hold ascending source segments, so the
//     concatenated replay order at any sink equals the ascending
//     source-topological-index order — exactly the offer order RunSparse
//     produces. With better() strict (first offer wins ties), the
//     resulting tuples are bit-identical to the serial kernel's for any
//     thread count.
//
// Blocks whose live population is below sparseParGrain are relaxed by
// the leader with the serial inner loop, so sparse cones (the common
// incremental case) pay no synchronization at all. Early cancel
// Invalidates the arrays like RunSparse; cancellation is checked at
// block barriers, so cancel latency is bounded by one block's relax
// work divided by the worker count.
func (p *Prop) RunSparseParallel(d *model.Design, setup bool, done <-chan struct{}, threads int) {
	if !p.sparse {
		panic("sta: RunSparseParallel on a Prop not prepared with ResetFor")
	}
	if threads < 2 {
		p.RunSparse(d, setup, done)
		return
	}
	ends := d.TopoBlocks()
	f := &p.fr
	f.grow(len(p.topo))
	ps := p.parPrep(threads)
	steps := 0
	for f.count > 0 {
		if done != nil && steps&15 == 0 {
			select {
			case <-done:
				p.Invalidate()
				return
			default:
			}
		}
		steps++

		// Locate the lowest queued index and the block containing it.
		w := f.cur
		for f.words[w] == 0 {
			w++
		}
		f.cur = w
		k := int32(w<<6) | int32(bits.TrailingZeros64(f.words[w]))
		b := sort.Search(len(ends), func(i int) bool { return ends[i] > k })
		end := ends[b]

		// Drain every queued index of the block into the live list,
		// consuming its bits. The word containing `end` may straddle the
		// block boundary; bits at indices >= end stay queued.
		live := ps.live[:0]
		for wi := w; wi<<6 < int(end); wi++ {
			word := f.words[wi]
			if word == 0 {
				continue
			}
			base := int32(wi << 6)
			if base+64 > end {
				keep := word & (^uint64(0) << uint(end-base))
				word &^= keep
				f.words[wi] = keep
			} else {
				f.words[wi] = 0
			}
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &^= 1 << uint(bit)
				live = append(live, base+int32(bit))
			}
		}
		ps.live = live
		f.count -= len(live)
		f.cur = int(end-1) >> 6

		if len(live) < sparseParGrain {
			for _, ti := range live {
				u := p.topo[ti]
				s := &p.slots[u]
				p.relaxSparse(d, u, s.a, s.b, setup)
			}
			continue
		}

		// Phase 1 (relax): contiguous ascending segments, buffered offers.
		nw := threads
		if m := len(live) / 64; nw > m && m >= 2 {
			nw = m // keep >= 64 sources per worker
		}
		if nw > len(live) {
			nw = len(live) // tests force tiny grains; never run empty segments
		}
		if nw < 2 {
			for _, ti := range live {
				u := p.topo[ti]
				s := &p.slots[u]
				p.relaxSparse(d, u, s.a, s.b, setup)
			}
			continue
		}
		chunk := (len(live) + nw - 1) / nw
		var wg sync.WaitGroup
		for wkr := 1; wkr < nw; wkr++ {
			lo := wkr * chunk
			hi := lo + chunk
			if lo > len(live) {
				lo = len(live)
			}
			if hi > len(live) {
				hi = len(live)
			}
			wg.Add(1)
			go func(wkr, lo, hi int) {
				defer wg.Done()
				p.relaxSegment(d, live[lo:hi], ps.bufs[wkr], nw, setup)
			}(wkr, lo, hi)
		}
		p.relaxSegment(d, live[:chunk], ps.bufs[0], nw, setup)
		wg.Wait()

		// Phase 2 (apply): owners replay their shard's buffers in worker
		// order; slot and frontier-word writes are ownership-exclusive.
		for o := 1; o < nw; o++ {
			wg.Add(1)
			go func(o int) {
				defer wg.Done()
				p.applyOwner(ps, o, nw, setup)
			}(o)
		}
		p.applyOwner(ps, 0, nw, setup)
		wg.Wait()

		// Fold the owners' frontier bookkeeping back into the cursor.
		for o := 0; o < nw; o++ {
			f.count += ps.added[o]
			if mw := ps.minWord[o]; mw < f.cur {
				f.cur = mw
			}
		}
	}
}

// relaxSparse relaxes one live pin exactly like RunSparse's inner loop:
// first touch writes both tuples in one pass and enqueues the sink,
// otherwise the tuples go through offerSlot. Under an armed bound a
// shifted tuple beyond it is dropped; at' is never better than at, so
// when the shifted at is dropped the shifted at' is too.
func (p *Prop) relaxSparse(d *model.Design, u model.PinID, a, b Tuple, setup bool) {
	for _, ai := range d.FanOut(u) {
		arc := &d.Arcs[ai]
		var delay model.Time
		if setup {
			delay = arc.Delay.Late
		} else {
			delay = arc.Delay.Early
		}
		v := arc.To
		bValid := b.Valid
		if p.req != nil {
			if p.cut(v, a.Time+delay, setup) {
				continue
			}
			bValid = bValid && !p.cut(v, b.Time+delay, setup)
		}
		sv := &p.slots[v]
		if sv.stamp != p.epoch {
			sv.stamp = p.epoch
			sv.a = Tuple{Time: a.Time + delay, From: u, Origin: a.Origin, Group: a.Group, Valid: true}
			if bValid {
				sv.b = Tuple{Time: b.Time + delay, From: u, Origin: b.Origin, Group: b.Group, Valid: true}
			} else {
				sv.b = Tuple{}
			}
			p.fr.push(p.topoIndex[v])
			continue
		}
		p.offerSlot(sv, a.Time+delay, u, a.Origin, a.Group, setup)
		if bValid {
			p.offerSlot(sv, b.Time+delay, u, b.Origin, b.Group, setup)
		}
	}
}

// relaxSegment relaxes a contiguous run of live topological indices,
// bucketing each arc's delay-shifted tuples into the sink owner's
// hand-off buffer, less those beyond an armed bound (as relaxSparse).
// Reads slots, the design and the bound's table only; writes nothing
// shared.
func (p *Prop) relaxSegment(d *model.Design, seg []int32, out [][]parOffer, nw int, setup bool) {
	for o := 0; o < nw; o++ {
		out[o] = out[o][:0]
	}
	for _, ti := range seg {
		u := p.topo[ti]
		s := &p.slots[u]
		a, b := s.a, s.b
		for _, ai := range d.FanOut(u) {
			arc := &d.Arcs[ai]
			var delay model.Time
			if setup {
				delay = arc.Delay.Late
			} else {
				delay = arc.Delay.Early
			}
			v := arc.To
			bValid := b.Valid
			if p.req != nil {
				if p.cut(v, a.Time+delay, setup) {
					continue
				}
				bValid = bValid && !p.cut(v, b.Time+delay, setup)
			}
			o := int(p.topoIndex[v]>>6) % nw
			e := parOffer{to: v, a: Tuple{Time: a.Time + delay, From: u, Origin: a.Origin, Group: a.Group, Valid: true}}
			if bValid {
				e.b = Tuple{Time: b.Time + delay, From: u, Origin: b.Origin, Group: b.Group, Valid: true}
			}
			out[o] = append(out[o], e)
		}
	}
}

// applyOwner replays every buffered offer targeting owner o's shard, in
// worker order, recording how many pins it first-touched and the lowest
// frontier word it wrote for the leader to fold in at the barrier.
func (p *Prop) applyOwner(ps *parScratch, o, nw int, setup bool) {
	added := 0
	minWord := len(p.fr.words)
	for w := 0; w < nw; w++ {
		buf := ps.bufs[w][o]
		for i := range buf {
			e := &buf[i]
			sv := &p.slots[e.to]
			if sv.stamp != p.epoch {
				sv.stamp = p.epoch
				sv.a = e.a
				sv.b = e.b
				ti := p.topoIndex[e.to]
				wi := int(ti >> 6)
				p.fr.words[wi] |= 1 << (uint(ti) & 63)
				if wi < minWord {
					minWord = wi
				}
				added++
				continue
			}
			p.offerSlot(sv, e.a.Time, e.a.From, e.a.Origin, e.a.Group, setup)
			if e.b.Valid {
				p.offerSlot(sv, e.b.Time, e.b.From, e.b.Origin, e.b.Group, setup)
			}
		}
	}
	ps.added[o] = added
	ps.minWord[o] = minWord
}
