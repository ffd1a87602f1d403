package sta

import (
	"math/rand"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// seedOp is one recorded seeding Offer, so the dense and sparse kernels
// can be fed byte-identical offer sequences.
type seedOp struct {
	pin    model.PinID
	t      model.Time
	origin model.PinID
	group  int32
}

// randomSeeds picks a random subset of FF output pins and assigns random
// arrival times and group tags (with deliberate collisions, so the at/at'
// pair logic is exercised).
func randomSeeds(d *model.Design, rng *rand.Rand) []seedOp {
	var ops []seedOp
	for i := range d.FFs {
		if rng.Intn(3) == 0 {
			continue // leave a third of the FFs unseeded: sparse cones
		}
		ff := &d.FFs[i]
		ops = append(ops, seedOp{
			pin:    ff.Output,
			t:      model.Time(rng.Intn(5000)),
			origin: ff.Clock,
			group:  int32(rng.Intn(4)), // few groups: force collisions
		})
	}
	return ops
}

func applySeeds(p *Prop, ops []seedOp, setup bool) {
	for _, o := range ops {
		p.Offer(o.pin, o.t, o.origin, o.origin, o.group, setup)
	}
}

// propState reads one pin's full post-run state — liveness and the raw
// at/at' tuples — from whichever representation the Prop has armed.
func propState(p *Prop, u model.PinID) (live bool, a, b Tuple) {
	if p.sparse {
		s := &p.slots[u]
		if s.stamp != p.epoch {
			return false, Tuple{}, Tuple{}
		}
		return true, s.a, s.b
	}
	if p.stamp[u] != p.epoch {
		return false, Tuple{}, Tuple{}
	}
	return true, p.a[u], p.b[u]
}

// requireKernelsEqual compares the full post-run state of the dense and
// sparse kernels: per-pin liveness and, for live pins, the raw at/at'
// tuples. Byte-identical tuples (including From/Origin tie-breaks) are
// the contract the engine's dense-reference job test relies on.
func requireKernelsEqual(t testing.TB, d *model.Design, dense, sparse *Prop) {
	t.Helper()
	for u := 0; u < d.NumPins(); u++ {
		dLive, da, db := propState(dense, model.PinID(u))
		sLive, sa, sb := propState(sparse, model.PinID(u))
		if dLive != sLive {
			t.Fatalf("pin %s: dense live=%v, sparse live=%v", d.PinName(model.PinID(u)), dLive, sLive)
		}
		if !dLive {
			continue
		}
		if da != sa {
			t.Fatalf("pin %s: at differs\ndense:  %+v\nsparse: %+v", d.PinName(model.PinID(u)), da, sa)
		}
		if db != sb {
			t.Fatalf("pin %s: at' differs\ndense:  %+v\nsparse: %+v", d.PinName(model.PinID(u)), db, sb)
		}
	}
}

// requireReached checks the reached list of a completed bounded sparse
// run: it is valid, holds no pin twice, and is exactly the set of FF D
// pins that hold a tuple. It then checks that a clone and a patched propagation
// report the list invalid; the patch re-folds one live D pin (or any arc
// sink) in place, so p must not be read afterwards.
func requireReached(t testing.TB, d *model.Design, p *Prop, ops []seedOp, setup bool) {
	t.Helper()
	reached, ok := p.Reached()
	if !ok {
		t.Fatal("Reached invalid after a completed sparse run")
	}
	seen := make(map[model.PinID]bool, len(reached))
	for _, v := range reached {
		if d.Pins[v].Kind != model.FFData {
			t.Fatalf("Reached lists %s, not an FF D pin", d.PinName(v))
		}
		if seen[v] {
			t.Fatalf("Reached lists %s twice", d.PinName(v))
		}
		seen[v] = true
	}
	edit := int32(0)
	for i := range d.FFs {
		v := d.FFs[i].Data
		live, _, _ := propState(p, v)
		if live != seen[v] {
			t.Fatalf("pin %s: holds a tuple %v, listed %v", d.PinName(v), live, seen[v])
		}
		if in := d.FanIn(v); live && len(in) > 0 {
			edit = in[0]
		}
	}
	if _, ok := p.CloneSparse().Reached(); ok {
		t.Fatal("Reached valid on a cloned propagation")
	}
	seeds := make(map[model.PinID]Tuple, len(ops))
	for _, o := range ops {
		seeds[o.pin] = Tuple{Time: o.t, From: o.origin, Origin: o.origin, Group: o.group, Valid: true}
	}
	p.PatchSparse(d, setup, []int32{edit}, func(v model.PinID) (Tuple, bool) {
		tup, ok := seeds[v]
		return tup, ok
	}, nil)
	if _, ok := p.Reached(); ok {
		t.Fatal("Reached valid on a patched propagation")
	}
}

// runBothKernels runs the same seed set through RunCtx (dense) and
// RunSparse, checks the resulting tuple arrays are identical and
// returns the sparse run.
func runBothKernels(t testing.TB, d *model.Design, ops []seedOp, setup bool) *Prop {
	t.Helper()
	var dense, sparse Prop
	dense.Reset(d.NumPins())
	applySeeds(&dense, ops, setup)
	dense.RunCtx(d, setup, nil)

	sparse.ResetFor(d)
	applySeeds(&sparse, ops, setup)
	sparse.RunSparse(d, setup, nil)

	requireKernelsEqual(t, d, &dense, &sparse)
	return &sparse
}

func TestRunSparseMatchesDenseRandom(t *testing.T) {
	// Property: for any design, any seed set and either mode, the sparse
	// frontier kernel produces bit-identical tuples to the dense kernel.
	for seed := int64(0); seed < 6; seed++ {
		d := gen.MustGenerate(gen.SmallOracle(seed))
		rng := rand.New(rand.NewSource(seed * 7))
		for rep := 0; rep < 8; rep++ {
			ops := randomSeeds(d, rng)
			runBothKernels(t, d, ops, true)
			runBothKernels(t, d, ops, false)
		}
	}
	// One mid-size design with real reconvergence and multi-level clocks.
	d := gen.MustGenerate(gen.Medium(3))
	rng := rand.New(rand.NewSource(99))
	for rep := 0; rep < 4; rep++ {
		ops := randomSeeds(d, rng)
		runBothKernels(t, d, ops, true)
		runBothKernels(t, d, ops, false)
	}
}

func TestRunSparseReusedPropMatchesDense(t *testing.T) {
	// The sparse kernel must stay exact when one Prop is reused across
	// epochs (the production pattern: one pooled Prop per worker serving
	// many jobs), including when the previous epoch left tuples behind.
	d := gen.MustGenerate(gen.Medium(5))
	rng := rand.New(rand.NewSource(5))
	var sparse Prop
	for rep := 0; rep < 6; rep++ {
		ops := randomSeeds(d, rng)
		setup := rep%2 == 0

		var dense Prop
		dense.Reset(d.NumPins())
		applySeeds(&dense, ops, setup)
		dense.RunCtx(d, setup, nil)

		sparse.ResetFor(d)
		applySeeds(&sparse, ops, setup)
		sparse.RunSparse(d, setup, nil)

		requireKernelsEqual(t, d, &dense, &sparse)
	}
}

func FuzzRunSparseVsDense(f *testing.F) {
	f.Add(int64(0), uint64(0xffff), uint16(1234), true)
	f.Add(int64(1), uint64(0xa5a5), uint16(7), false)
	f.Add(int64(2), uint64(1), uint16(0), true)
	f.Fuzz(func(t *testing.T, designSeed int64, mask uint64, timeSeed uint16, setup bool) {
		d := gen.MustGenerate(gen.SmallOracle(designSeed % 8))
		rng := rand.New(rand.NewSource(int64(timeSeed)))
		var ops []seedOp
		for i := range d.FFs {
			if mask&(1<<(uint(i)%64)) == 0 {
				continue
			}
			ff := &d.FFs[i]
			ops = append(ops, seedOp{
				pin:    ff.Output,
				t:      model.Time(rng.Intn(4096)),
				origin: ff.Clock,
				group:  int32(rng.Intn(3)),
			})
		}
		sparse := runBothKernels(t, d, ops, setup)
		if _, ok := sparse.Reached(); ok {
			t.Fatal("Reached valid after an unbounded run")
		}
		// A bound no tuple reaches records the reached list without
		// changing the propagation.
		noEndpoints := make([]model.Time, d.NumPins())
		for i := range noEndpoints {
			noEndpoints[i] = NoRequired
		}
		var bounded Prop
		bounded.ResetFor(d)
		bounded.SetBound(Required(d, setup, noEndpoints), 1<<62)
		applySeeds(&bounded, ops, setup)
		bounded.RunSparse(d, setup, nil)
		requireKernelsEqual(t, d, sparse, &bounded)
		requireReached(t, d, &bounded, ops, setup)
	})
}

func TestRunSparsePanicsWithoutResetFor(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(0))
	var p Prop
	p.Reset(d.NumPins())
	defer func() {
		if recover() == nil {
			t.Fatal("RunSparse on a dense-Reset Prop should panic")
		}
	}()
	p.RunSparse(d, true, nil)
}

func TestCancelInvalidatesReads(t *testing.T) {
	// Early cancel must leave the arrays unreadable (the "must not be
	// consulted" contract): after a canceled run, every At/Auto returns
	// an unset tuple until the next Reset, for both kernels.
	d := gen.MustGenerate(gen.Medium(2))
	done := make(chan struct{})
	close(done)
	seedAll := func(p *Prop, setup bool) {
		for i := range d.FFs {
			ff := &d.FFs[i]
			p.Offer(ff.Output, model.Time(100+i), ff.Clock, ff.Clock, int32(i%3), setup)
		}
	}
	checkUnreadable := func(name string, p *Prop) {
		t.Helper()
		for u := 0; u < d.NumPins(); u++ {
			if p.At(model.PinID(u)).Valid {
				t.Fatalf("%s: At(%s) readable after canceled run", name, d.PinName(model.PinID(u)))
			}
			if p.Auto(model.PinID(u), 0).Valid {
				t.Fatalf("%s: Auto(%s) readable after canceled run", name, d.PinName(model.PinID(u)))
			}
		}
	}

	var dense Prop
	dense.Reset(d.NumPins())
	seedAll(&dense, true)
	dense.RunCtx(d, true, done)
	checkUnreadable("dense", &dense)

	var sparse Prop
	sparse.ResetFor(d)
	seedAll(&sparse, true)
	sparse.RunSparse(d, true, done)
	checkUnreadable("sparse", &sparse)

	// The next Reset must fully revive both Props.
	sparse.ResetFor(d)
	seedAll(&sparse, true)
	sparse.RunSparse(d, true, nil)
	dense.Reset(d.NumPins())
	seedAll(&dense, true)
	dense.RunCtx(d, true, nil)
	requireKernelsEqual(t, d, &dense, &sparse)
}

func TestPutPropEvictsOversizedBuffers(t *testing.T) {
	old := propRetainPins
	defer func() { propRetainPins = old }()
	propRetainPins = 8

	p := new(Prop)
	p.Reset(16) // dense buffers above the cap: must be dropped on Put
	PutProp(p)
	if p.a != nil || p.stamp != nil {
		t.Fatalf("PutProp retained %d-pin dense buffers beyond the %d-pin cap", cap(p.a), propRetainPins)
	}

	d := gen.MustGenerate(gen.SmallOracle(1))
	s := new(Prop)
	s.ResetFor(d) // sparse slots above the cap: must be dropped on Put
	if d.NumPins() <= propRetainPins {
		t.Fatalf("want design pins (%d) above the %d-pin cap", d.NumPins(), propRetainPins)
	}
	PutProp(s)
	if s.slots != nil {
		t.Fatalf("PutProp retained %d-pin slot buffer beyond the %d-pin cap", cap(s.slots), propRetainPins)
	}

	propRetainPins = d.NumPins()
	q := new(Prop)
	q.ResetFor(d) // within the cap: buffers retained, design binding dropped
	PutProp(q)
	if q.slots == nil {
		t.Fatal("PutProp dropped buffers within the retention cap")
	}
	if q.topo != nil || q.topoIndex != nil {
		t.Fatal("PutProp retained the design's topological tables")
	}
	if q.fr.len() != 0 {
		t.Fatal("PutProp retained frontier entries")
	}
}

func TestPropReuseAcrossDesignsNoStaleAliasing(t *testing.T) {
	// Regression: a pooled Prop carries arrays (and, before PutProp
	// clears them, design bindings) from its previous life. Reusing it
	// on a different design must never surface the old design's tuples.
	big := gen.MustGenerate(gen.Medium(7))
	small := gen.MustGenerate(gen.SmallOracle(3))
	if small.NumPins() >= big.NumPins() {
		t.Fatalf("want small (%d pins) < big (%d pins)", small.NumPins(), big.NumPins())
	}

	p := GetProp()
	p.ResetFor(big)
	for i := range big.FFs {
		ff := &big.FFs[i]
		p.Offer(ff.Output, model.Time(1000+i), ff.Clock, ff.Clock, int32(i%5), true)
	}
	p.RunSparse(big, true, nil)
	PutProp(p)

	p = GetProp() // may or may not be the same object; both must be safe
	p.ResetFor(small)
	for u := 0; u < small.NumPins(); u++ {
		if p.At(model.PinID(u)).Valid {
			t.Fatalf("stale tuple visible at %s before any Offer", small.PinName(model.PinID(u)))
		}
	}
	rng := rand.New(rand.NewSource(11))
	ops := randomSeeds(small, rng)
	applySeeds(p, ops, false)
	p.RunSparse(small, false, nil)

	var fresh Prop
	fresh.ResetFor(small)
	applySeeds(&fresh, ops, false)
	fresh.RunSparse(small, false, nil)
	requireKernelsEqual(t, small, p, &fresh)
	PutProp(p)
}

// TestLevelJobKernelZeroAllocs pins the steady-state allocation count of
// the sparse level-job kernel loop — reset, seed, propagate, read every
// capture pin — at zero. The epoch bump makes Reset allocation-free and
// the frontier bitset retains its words across drains, so after the first job warms the
// arrays nothing on the hot path may allocate.
func TestLevelJobKernelZeroAllocs(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(4))
	var p Prop
	job := func(run func()) {
		for i := range d.FFs {
			ff := &d.FFs[i]
			p.Offer(ff.Output, model.Time(500+i), ff.Clock, ff.Clock, int32(i%4), true)
		}
		run()
		for i := range d.FFs {
			_ = p.Auto(d.FFs[i].Data, int32(i%4))
		}
	}

	p.ResetFor(d)
	job(func() { p.RunSparse(d, true, nil) }) // warm-up: grow arrays and frontier
	if allocs := testing.AllocsPerRun(20, func() {
		p.ResetFor(d)
		job(func() { p.RunSparse(d, true, nil) })
	}); allocs != 0 {
		t.Fatalf("sparse level-job kernel allocates %v per run, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(20, func() {
		p.Reset(d.NumPins())
		job(func() { p.RunCtx(d, true, nil) })
	}); allocs != 0 {
		t.Fatalf("dense level-job kernel allocates %v per run, want 0", allocs)
	}
}
