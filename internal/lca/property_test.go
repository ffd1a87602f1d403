package lca

import (
	"math"
	"math/rand"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// jitterCorner appends a corner with independently scaled arc delays so
// derived trees carry genuinely different arrivals and credits.
func jitterCorner(t *testing.T, d *model.Design, seed int64) *model.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nd, _, err := d.WithDerivedCorner("jit", func(_ int, w model.Window) model.Window {
		f := 0.7 + 0.6*rng.Float64()
		return model.Window{
			Early: model.Time(math.Round(float64(w.Early) * f)),
			Late:  model.Time(math.Round(float64(w.Late) * f)),
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// TestEulerVsNaiveProperty compares the Euler-tour RMQ LCA against the
// model's parent-walk reference (Design.NaiveLCA) over every pair class
// — FF clocks, internal buffers, mixed — on random trees much deeper
// than the targeted unit-test fixtures.
func TestEulerVsNaiveProperty(t *testing.T) {
	seeds := []int64{11, 12, 13, 14}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		d := randomTreeDesign(t, seed, 120, 150)
		tr := New(d)
		pins := tr.ClockPins()
		rng := rand.New(rand.NewSource(seed * 7))
		for q := 0; q < 3000; q++ {
			u := pins[rng.Intn(len(pins))]
			v := pins[rng.Intn(len(pins))]
			euler := tr.LCA(u, v)
			if naive := d.NaiveLCA(u, v); euler != naive {
				t.Fatalf("seed %d: LCA(%s,%s): euler %s, naive %s", seed,
					d.PinName(u), d.PinName(v), d.PinName(euler), d.PinName(naive))
			}
			if dep := tr.LCADepth(u, v); dep != tr.Depth(euler) {
				t.Fatalf("seed %d: LCADepth(%s,%s) = %d, want depth(%s) = %d", seed,
					d.PinName(u), d.PinName(v), dep, d.PinName(euler), tr.Depth(euler))
			}
		}
	}
}

// TestEulerVsNaiveMultiDomain extends the comparison to clock forests:
// on designs with several clock domains both must also agree that
// cross-domain pairs have no LCA (NoPin).
func TestEulerVsNaiveMultiDomain(t *testing.T) {
	for _, domains := range []int{2, 3} {
		spec := gen.SmallOracle(int64(domains))
		spec.NumDomains = domains
		d := gen.MustGenerate(spec)
		tr := New(d)
		cross := 0
		for _, u := range ffClockPins(d) {
			for _, v := range ffClockPins(d) {
				euler, naive := tr.LCA(u, v), d.NaiveLCA(u, v)
				if euler != naive {
					t.Fatalf("domains %d: LCA(%s,%s): euler %s, naive %s", domains,
						d.PinName(u), d.PinName(v), d.PinName(euler), d.PinName(naive))
				}
				if euler == model.NoPin {
					cross++
				}
			}
		}
		if cross == 0 {
			t.Fatalf("domains %d: no cross-domain FF pair", domains)
		}
	}
}

// TestDeriveEqualsFreshNew is the substrate-sharing oracle: a tree
// derived from the base corner's (sharing its shape — depth arrays,
// Euler tour, per-level grouping) must answer every query
// exactly like a tree built from scratch on the corner view.
func TestDeriveEqualsFreshNew(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		d := randomTreeDesign(t, seed, 60, 80)
		d = jitterCorner(t, d, seed)
		view := d.View(1)
		base := New(d)
		derived := base.Derive(view)
		fresh := New(view)

		if !derived.SharesShape(base) {
			t.Fatal("derived tree does not share the base shape")
		}
		if derived.SharesShape(fresh) {
			t.Fatal("fresh tree unexpectedly shares the derived shape")
		}
		if derived.NumClockPins() != fresh.NumClockPins() {
			t.Fatalf("clock pin count %d vs %d", derived.NumClockPins(), fresh.NumClockPins())
		}
		for _, u := range fresh.ClockPins() {
			if derived.Depth(u) != fresh.Depth(u) {
				t.Fatalf("seed %d: depth(%s) %d vs %d", seed, d.PinName(u), derived.Depth(u), fresh.Depth(u))
			}
			if derived.Arrival(u) != fresh.Arrival(u) {
				t.Fatalf("seed %d: arrival(%s) %v vs %v", seed, d.PinName(u), derived.Arrival(u), fresh.Arrival(u))
			}
			if derived.Credit(u) != fresh.Credit(u) {
				t.Fatalf("seed %d: credit(%s) %v vs %v", seed, d.PinName(u), derived.Credit(u), fresh.Credit(u))
			}
		}
		pins := fresh.ClockPins()
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 1000; q++ {
			u := pins[rng.Intn(len(pins))]
			v := pins[rng.Intn(len(pins))]
			if derived.LCA(u, v) != fresh.LCA(u, v) {
				t.Fatalf("seed %d: LCA(%s,%s) differs between derived and fresh", seed, d.PinName(u), d.PinName(v))
			}
		}
	}
}

// TestDerivedSharedLevelTables checks the per-level table split on
// derived trees: Group is topology-only (identical to the fresh
// tree's and to the base's), CreditAtD is per-corner (identical to the
// fresh tree's, computed from the corner's credits), and both match
// the eager FillLevel path.
func TestDerivedSharedLevelTables(t *testing.T) {
	for _, seed := range []int64{31, 32} {
		d := randomTreeDesign(t, seed, 50, 70)
		d = jitterCorner(t, d, seed+100)
		view := d.View(1)
		base := New(d)
		derived := base.Derive(view)
		fresh := New(view)

		maxDep := 0
		for _, u := range fresh.ClockPins() {
			if dep := fresh.Depth(u); dep > maxDep {
				maxDep = dep
			}
		}
		for dep := 0; dep <= maxDep; dep++ {
			ds := derived.SharedLevel(dep)
			fs := fresh.SharedLevel(dep)
			var eager LevelTables
			fresh.FillLevel(dep, &eager)
			for _, u := range fresh.ClockPins() {
				if derived.Depth(u) < dep {
					continue
				}
				if g1, g2 := derived.GroupOf(ds, u), fresh.GroupOf(fs, u); g1 != g2 {
					t.Fatalf("seed %d dep %d: group(%s) %d vs %d", seed, dep, d.PinName(u), g1, g2)
				}
				if g1, g2 := derived.GroupOf(ds, u), base.GroupOf(base.SharedLevel(dep), u); g1 != g2 {
					t.Fatalf("seed %d dep %d: group(%s) differs from base shape's", seed, dep, d.PinName(u))
				}
				c1 := derived.CreditAtDOf(ds, u)
				c2 := fresh.CreditAtDOf(fs, u)
				c3 := fresh.CreditAtDOf(&eager, u)
				if c1 != c2 || c1 != c3 {
					t.Fatalf("seed %d dep %d: creditAtD(%s) shared-derived %v, shared-fresh %v, eager %v",
						seed, dep, d.PinName(u), c1, c2, c3)
				}
			}
		}

		dx := derived.SharedCrossDomain()
		fx := fresh.SharedCrossDomain()
		for _, u := range fresh.ClockPins() {
			if g1, g2 := derived.GroupOf(dx, u), fresh.GroupOf(fx, u); g1 != g2 {
				t.Fatalf("seed %d: cross-domain group(%s) %d vs %d", seed, d.PinName(u), g1, g2)
			}
			if c := derived.CreditAtDOf(dx, u); c != 0 {
				t.Fatalf("seed %d: cross-domain credit(%s) = %v, want 0", seed, d.PinName(u), c)
			}
		}
	}
}
