package core

import (
	"sync"

	"fastcppr/internal/mmheap"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

// This file holds the two bounds a cold top-k run prunes with, next to
// the live global k-th best slack (globalBound):
//
//   - req, a backward required-time table: a tuple at pin v with time t
//     can only lead to paths whose final slack is at least req[v]-t
//     (setup) or t+req[v] (hold), so the sparse kernels drop it when
//     that exceeds the query's limit (sta.Prop.SetBound). There is one
//     table per capture class, because a job captures either at FF D
//     pins or (the PO job) at constrained POs only, and required times
//     of the other class would only loosen its bound;
//   - B0, an a-priori limit known before any job runs: the k-th
//     smallest post-CPPR slack among one real witness path per capture
//     endpoint. k distinct paths of the query have slack at most B0, so
//     the query's true k-th best slack is at most B0 too.
//
// Both are per (Engine, mode) and built on the first cold query that
// needs them; memoized runs never prune and never build them.

// modeBounds holds one mode's cold-run bound tables.
type modeBounds struct {
	once sync.Once
	// req holds sta.Required over each capture class the engine ranks:
	// [0] over FF D pins (the check's required time, less the mode's
	// uncertainty), [1] over constrained POs (their required window).
	req [2][]model.Time
	// wit holds one witness path per reachable capture endpoint.
	wit []witness
}

// witness is one capture endpoint's graph-based critical path, traced
// back to the launching CK pin or PI that its worst credit-free arrival
// comes from.
type witness struct {
	launch model.PinID
	// capFF is the capturing FF, or NoFF for a PO endpoint.
	capFF model.FFID
	// slack is the path's post-CPPR slack, indexed by model.CRPRMode:
	// its pre-CPPR slack plus the launch/capture pair credit.
	slack [2]model.Time
}

// jobReq returns the required-time table of spec's capture class.
func (mb *modeBounds) jobReq(spec jobSpec) []model.Time {
	if spec.kind == jobPO {
		return mb.req[1]
	}
	return mb.req[0]
}

// modeBounds returns mode's bound tables, building them on first use.
func (e *Engine) modeBounds(mode model.Mode) *modeBounds {
	mb := &e.bounds[mode]
	mb.once.Do(func() { e.buildBounds(mb, mode) })
	return mb
}

// buildBounds fills mb. An endpoint's own required time is its slack at
// arrival zero (jobSlack, poSlack), so one backward pass per capture
// class gives req. The witnesses come from the PO job's seeding — every
// launch point, credit-free and ungrouped — propagated unbounded: the
// roots of the self-loop and PO jobs read in it are each endpoint's
// worst credit-free arrival, and its origin is the witness's launch.
func (e *Engine) buildBounds(mb *modeBounds, mode model.Mode) {
	d := e.d
	setup := mode == model.Setup
	own := [2][]model.Time{make([]model.Time, d.NumPins()), make([]model.Time, d.NumPins())}
	for c := range own {
		for v := range own[c] {
			own[c][v] = sta.NoRequired
		}
	}
	for i := range d.FFs {
		ff := &d.FFs[i]
		own[0][ff.Data] = e.jobSlack(setup, e.tree.Arrival(ff.Clock), ff, 0)
	}
	for i, po := range d.POs {
		if d.POConstrained[i] {
			own[1][po] = e.poSlack(setup, i, 0)
		}
	}
	for c := range own {
		mb.req[c] = sta.Required(d, setup, own[c])
	}

	s := e.getScratch(nil)
	defer e.putScratch(s)
	opts := Options{Mode: mode}
	po := jobSpec{kind: jobPO}
	e.seedJob(s, po, opts, nil)
	s.prop.RunSparse(d, setup, nil)
	visit := func(pos model.PinID, capFF model.FFID, _ int32, slack model.Time) {
		w := witness{launch: s.prop.At(pos).Origin, capFF: capFF, slack: [2]model.Time{slack, slack}}
		if capFF != model.NoFF && d.Pins[w.launch].Kind == model.FFClock {
			for crpr := range w.slack {
				w.slack[crpr] += e.tree.PairCredit(w.launch, d.FFs[capFF].Clock, model.CRPRMode(crpr))
			}
		}
		mb.wit = append(mb.wit, w)
	}
	e.roots(s, jobSpec{kind: jobSelfLoop}, &opts, visit)
	e.roots(s, po, &opts, visit)
}

// priorBound returns B0 for a cold query: the k-th smallest slack among
// the witnesses the query admits — launch and capture not excluded, PO
// endpoints only with IncludePOs. Each is a distinct real candidate of
// the query, so the query's k-th best slack is at most B0. ok=false when
// fewer than k witnesses qualify, and for FilterCapture queries, whose
// one endpoint has one witness.
func (e *Engine) priorBound(opts *Options) (model.Time, bool) {
	if opts.FilterCapture {
		return 0, false
	}
	wit := e.modeBounds(opts.Mode).wit
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
