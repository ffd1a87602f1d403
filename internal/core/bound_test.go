package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fastcppr/gen"
	"fastcppr/internal/mmheap"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

// boundTestEngines returns engines over a design with POs and a deep
// multi-level clock tree, and over one whose clock tree is parity-mixed
// (so the cross job's same_transition table is exercised).
func boundTestEngines() []*Engine {
	return []*Engine{
		NewEngine(gen.MustGenerate(gen.Medium(61))),
		NewEngine(gen.MustGenerate(gen.DivergentClock(3))),
	}
}

// heapPriorBound is the reference B0 selection: every admitted
// witness's slack through a bounded max-heap of size k, as priorBound
// did before the witness lists were pre-sorted.
func heapPriorBound(e *Engine, opts *Options) (model.Time, bool) {
	if opts.FilterCapture {
		return 0, false
	}
	wit := e.modeBounds(opts.Mode).wit[0]
	if opts.K > len(wit) {
		return 0, false
	}
	best := mmheap.NewKey[struct{}]()
	for i := range wit {
		w := &wit[i]
		if opts.ExcludeLaunchPin[w.launch] {
			continue
		}
		if lp := &e.d.Pins[w.launch]; lp.Kind == model.FFClock && opts.launchExcluded(int(lp.FF)) {
			continue
		}
		if w.capFF == model.NoFF && !opts.IncludePOs || w.capFF != model.NoFF && opts.captureExcluded(int(w.capFF)) {
			continue
		}
		best.PushBounded(int64(w.slack[opts.CRPR]), struct{}{}, opts.K)
	}
	if best.Len() < opts.K {
		return 0, false
	}
	kth, _ := best.MaxKey()
	return model.Time(kth), true
}

// TestPriorBoundMatchesHeapSelection checks B0 read off the pre-sorted
// witness lists against the heap selection over the unsorted witnesses,
// across modes, CRPR modes, budgets up to past the witness count, PO
// endpoints and false-path exclusions.
func TestPriorBoundMatchesHeapSelection(t *testing.T) {
	for ei, e := range boundTestEngines() {
		d := e.d
		excl := Options{
			ExcludeLaunchFF:  make([]bool, len(d.FFs)),
			ExcludeCaptureFF: make([]bool, len(d.FFs)),
			ExcludeLaunchPin: map[model.PinID]bool{},
		}
		for i := range d.FFs {
			excl.ExcludeLaunchFF[i] = i%5 == 1
			excl.ExcludeCaptureFF[i] = i%7 == 3
		}
		if len(d.PIs) > 0 {
			excl.ExcludeLaunchPin[d.PIs[0]] = true
		}
		exclPOs := excl
		exclPOs.IncludePOs = true
		shapes := []Options{{}, {IncludePOs: true}, excl, exclPOs}
		for _, mode := range model.Modes {
			n := len(e.modeBounds(mode).wit[0])
			for si, shape := range shapes {
				for _, crpr := range []model.CRPRMode{model.CRPRSamePin, model.CRPRSameTransition} {
					for _, k := range []int{1, 2, 7, 50, n / 2, n, n + 1} {
						if k < 1 {
							continue
						}
						opts := shape
						opts.K, opts.Mode, opts.CRPR = k, mode, crpr
						got, gotOK := e.priorBound(&opts)
						want, wantOK := heapPriorBound(e, &opts)
						if got != want || gotOK != wantOK {
							t.Fatalf("engine %d %v shape %d %v k=%d: B0 (%v, %v), heap selection (%v, %v)",
								ei, mode, si, crpr, k, got, gotOK, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestBoundOrderedSeedingMatchesFullOffer pins bound-ordered seeding and
// reached-capture roots to their definitions. For every job, mode, CRPR
// mode and a spread of limits, with and without excluded launches and
// captures, seedJob under the limit (seeds in bound order, stopping at
// the first one past it) must offer exactly the seeds that a bounded
// Prop keeps when every seed is offered in FF-list order, and the two
// propagations must hold identical tuples at every pin. The roots read
// from the reached list must be those an FF-list scan of the same
// propagation finds.
func TestBoundOrderedSeedingMatchesFullOffer(t *testing.T) {
	for ei, e := range boundTestEngines() {
		d := e.d
		got := e.getScratch(nil)
		ref := e.getScratch(nil)
		exclLaunch := make([]bool, len(d.FFs))
		exclCapture := make([]bool, len(d.FFs))
		for i := range exclLaunch {
			exclLaunch[i] = i%3 == 2
			exclCapture[i] = i%4 == 1
		}
		for _, mode := range model.Modes {
			setup := mode == model.Setup
			mb := e.modeBounds(mode)
			for _, crpr := range []model.CRPRMode{model.CRPRSamePin, model.CRPRSameTransition} {
				for _, spec := range e.fullPlan() {
					opts := Options{Mode: mode, CRPR: crpr}
					req := mb.jobReq(spec)
					lt, ffs := e.jobTables(spec, opts)
					// Limits from the seeds' own lower bounds, so each run
					// keeps a real fraction of them, plus the extremes.
					var lbs []model.Time
					for _, fi := range ffs {
						if tup, ok := e.ffSeed(spec, lt, int(fi), &opts); ok {
							lbs = append(lbs, sta.SlackLowerBound(req, d.FFs[fi].Output, tup.Time, setup))
						}
					}
					sort.Slice(lbs, func(i, j int) bool { return lbs[i] < lbs[j] })
					limits := []model.Time{-1 << 40, 1 << 40}
					for _, q := range []int{0, 1, 2, 4, 6} {
						if len(lbs) > 0 {
							limits = append(limits, lbs[len(lbs)*q/7])
						}
					}
					for _, exclude := range []bool{false, true} {
						opts.ExcludeLaunchFF, opts.ExcludeCaptureFF = nil, nil
						if exclude {
							opts.ExcludeLaunchFF, opts.ExcludeCaptureFF = exclLaunch, exclCapture
						}
						for _, b := range limits {
							what := fmt.Sprintf("engine %d %v %v job (kind %d level %d) excl=%v limit %v",
								ei, mode, crpr, spec.kind, spec.level, exclude, b)
							seeded, ok := e.seedJob(got, spec, opts, &globalBound{prior: b, hasPrior: true})
							if !ok {
								t.Fatalf("%s: seeding canceled", what)
							}
							got.prop.RunSparse(d, setup, nil)

							ref.prop.ResetFor(d)
							ref.prop.SetBound(req, b)
							kept := 0
							offer := func(v model.PinID, tup sta.Tuple) {
								if !ref.prop.Beyond(v, tup.Time, setup) {
									kept++
								}
								ref.prop.Offer(v, tup.Time, tup.From, tup.Origin, tup.Group, setup)
							}
							for _, fi := range ffs {
								if tup, ok := e.ffSeed(spec, lt, int(fi), &opts); ok {
									offer(d.FFs[fi].Output, tup)
								}
							}
							for i, pi := range d.PIs {
								if tup, ok := e.piSeed(spec, i, &opts); ok {
									offer(pi, tup)
								}
							}
							ref.prop.RunSparse(d, setup, nil)

							if seeded != kept {
								t.Fatalf("%s: offered %d seeds, a full offer keeps %d", what, seeded, kept)
							}
							for u := 0; u < d.NumPins(); u++ {
								v := model.PinID(u)
								ga, ra := got.prop.At(v), ref.prop.At(v)
								if ga != ra || got.prop.Auto(v, ga.Group) != ref.prop.Auto(v, ra.Group) {
									t.Fatalf("%s: pin %s differs: bound order %+v / %+v, full offer %+v / %+v", what, d.PinName(v),
										ga, got.prop.Auto(v, ga.Group), ra, ref.prop.Auto(v, ra.Group))
								}
							}
							// A clone reports no reached list, so its roots
							// come from the FF-list scan.
							live := ref.prop
							ref.prop = live.CloneSparse()
							if want, have := rootSet(e, ref, spec, &opts), rootSet(e, got, spec, &opts); !slices.Equal(have, want) {
								t.Fatalf("%s: reached-list roots %v, FF-list scan %v", what, have, want)
							}
							ref.prop = live
						}
					}
				}
			}
		}
		e.putScratch(got)
		e.putScratch(ref)
	}
}

// rootSet returns the roots e.roots visits in s.prop, as sorted strings.
func rootSet(e *Engine, s *scratch, spec jobSpec, opts *Options) []string {
	var out []string
	e.roots(s, spec, opts, func(pos model.PinID, capFF model.FFID, gid int32, slack model.Time) {
		out = append(out, fmt.Sprintf("%d/%d/%d/%d", pos, capFF, gid, slack))
	})
	slices.Sort(out)
	return out
}
