package sta

import (
	"math/rand"
	"sort"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// lowerBound is a tuple's lower bound on the final slack under req: the
// test's own statement of the rule the kernel's cut applies.
func lowerBound(req []model.Time, v model.PinID, t model.Time, setup bool) model.Time {
	if setup {
		return req[v] - t
	}
	return t + req[v]
}

// randomRequired builds a required-time table over a random subset of
// the FF D pins, with random own required times.
func randomRequired(d *model.Design, rng *rand.Rand, setup bool) []model.Time {
	own := make([]model.Time, d.NumPins())
	for i := range own {
		own[i] = NoRequired
	}
	for i := range d.FFs {
		if rng.Intn(4) != 0 {
			own[d.FFs[i].Data] = model.Time(rng.Intn(20000) - 5000)
		}
	}
	return Required(d, setup, own)
}

// requireBoundedSurvivors checks a bounded run against the unbounded
// one: every pin whose unbounded at has lower bound <= bound holds the
// same at, and the same at' when that one's lower bound is <= bound too
// (else none); every other pin holds no tuple.
func requireBoundedSurvivors(t testing.TB, d *model.Design, req []model.Time, bound model.Time, setup bool, unb, got *Prop) {
	t.Helper()
	for u := 0; u < d.NumPins(); u++ {
		v := model.PinID(u)
		uLive, ua, ub := propState(unb, v)
		gLive, ga, gb := propState(got, v)
		if !uLive || lowerBound(req, v, ua.Time, setup) > bound {
			if gLive {
				t.Fatalf("pin %s: bounded run holds %+v / %+v past bound %v", d.PinName(v), ga, gb, bound)
			}
			continue
		}
		if !gLive || ga != ua {
			t.Fatalf("pin %s: bounded at %+v (live=%v), unbounded %+v", d.PinName(v), ga, gLive, ua)
		}
		want := ub
		if ub.Valid && lowerBound(req, v, ub.Time, setup) > bound {
			want = Tuple{}
		}
		if gb != want {
			t.Fatalf("pin %s: bounded at' %+v, want %+v", d.PinName(v), gb, want)
		}
	}
}

// TestBoundedRunKeepsSurvivors: for random designs, seed sets, required
// tables and bounds, RunSparse and RunSparseParallel under SetBound keep
// exactly the unbounded run's tuples whose lower bound on the final
// slack is at most the bound, tie-breaks included, and nothing else.
func TestBoundedRunKeepsSurvivors(t *testing.T) {
	designs := []*model.Design{gen.MustGenerate(gen.Medium(3))}
	for seed := int64(0); seed < 6; seed++ {
		designs = append(designs, gen.MustGenerate(gen.SmallOracle(seed)))
	}
	for di, d := range designs {
		rng := rand.New(rand.NewSource(int64(di)*31 + 5))
		for rep := 0; rep < 3; rep++ {
			ops := randomSeeds(d, rng)
			for _, setup := range []bool{true, false} {
				req := randomRequired(d, rng, setup)
				var unb Prop
				unb.ResetFor(d)
				applySeeds(&unb, ops, setup)
				unb.RunSparse(d, setup, nil)

				// Bounds from the unbounded run's own lower bounds, so
				// each run keeps a real fraction of the cone, plus the
				// two extremes.
				var lbs []model.Time
				for u := 0; u < d.NumPins(); u++ {
					if live, a, _ := propState(&unb, model.PinID(u)); live {
						lbs = append(lbs, lowerBound(req, model.PinID(u), a.Time, setup))
					}
				}
				sort.Slice(lbs, func(i, j int) bool { return lbs[i] < lbs[j] })
				bounds := []model.Time{-1 << 40, 1 << 40}
				for _, q := range []int{1, 3, 5, 7} {
					if len(lbs) > 0 {
						bounds = append(bounds, lbs[len(lbs)*q/8])
					}
				}
				for _, b := range bounds {
					var ser Prop
					ser.ResetFor(d)
					ser.SetBound(req, b)
					applySeeds(&ser, ops, setup)
					ser.RunSparse(d, setup, nil)
					requireBoundedSurvivors(t, d, req, b, setup, &unb, &ser)
					requireReached(t, d, &ser, ops, setup)
					for _, threads := range []int{2, 3} {
						old := sparseParGrain
						sparseParGrain = 1
						var par Prop
						par.ResetFor(d)
						par.SetBound(req, b)
						applySeeds(&par, ops, setup)
						par.RunSparseParallel(d, setup, nil, threads)
						sparseParGrain = old
						requireBoundedSurvivors(t, d, req, b, setup, &unb, &par)
						requireReached(t, d, &par, ops, setup)
					}
				}
			}
		}
	}
}

// TestSlackLowerBoundMatchesOracle: the exported SlackLowerBound, which
// the kernel's cut and the engine's seed order both use, agrees with
// lowerBound on random inputs.
func TestSlackLowerBoundMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	req := make([]model.Time, 64)
	for rep := 0; rep < 1000; rep++ {
		for i := range req {
			req[i] = model.Time(rng.Int63n(1<<40) - 1<<39)
		}
		v := model.PinID(rng.Intn(len(req)))
		tm := model.Time(rng.Int63n(1<<40) - 1<<39)
		for _, setup := range []bool{true, false} {
			if got, want := SlackLowerBound(req, v, tm, setup), lowerBound(req, v, tm, setup); got != want {
				t.Fatalf("SlackLowerBound(req[%d]=%v, t=%v, setup=%v) = %v, want %v", v, req[v], tm, setup, got, want)
			}
		}
	}
}

// TestRequiredIsTightestEndpointBound checks Required against its
// definition on a small design: each pin's entry is the minimum of its
// own required time and, over its fanout arcs, the sink's entry shifted
// by the arc's delay.
func TestRequiredIsTightestEndpointBound(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(2))
	rng := rand.New(rand.NewSource(8))
	for _, setup := range []bool{true, false} {
		own := make([]model.Time, d.NumPins())
		for i := range own {
			own[i] = NoRequired
		}
		for i := range d.FFs {
			own[d.FFs[i].Data] = model.Time(rng.Intn(10000))
		}
		req := Required(d, setup, own)
		for u := 0; u < d.NumPins(); u++ {
			want := own[u]
			for _, ai := range d.FanOut(model.PinID(u)) {
				arc := &d.Arcs[ai]
				r := req[arc.To] + arc.Delay.Early
				if setup {
					r = req[arc.To] - arc.Delay.Late
				}
				want = min(want, r)
			}
			if req[u] != want {
				t.Fatalf("setup=%v pin %s: req %v, want %v", setup, d.PinName(model.PinID(u)), req[u], want)
			}
		}
	}
}
