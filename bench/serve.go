package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/serve"
	"fastcppr/model"
)

// serveID is the id the design is loaded under.
const serveID = "leon2"

// request is one scheduled arrival: a global top-k query, or an arc edit
// when edit is set.
type request struct {
	due  time.Duration // since the load started
	edit bool
	k    int
	mode model.Mode
	arc  model.Arc
	win  model.Window
}

// schedule draws Poisson arrivals at rate per second, over warm and then
// over length: global top-k queries (k ∈ {1, 10, 100}, setup or hold),
// and an edit of an arc leaving an FF output for every twentieth arrival
// of each phase, starting with its first.
//
// The mix has no capture-filtered (report_timing -to) queries: the HTTP
// API cannot express them, and run in-process beside the server they
// cost ten times a global query's CPU and made every latency percentile
// swing by a quarter from run to run. The probe measures them instead
// (cppr.capture_ms_p50).
func schedule(d *model.Design, rate float64, warm, length time.Duration, rng *rand.Rand) []request {
	arcs := ffOutputArcs(d)
	var out []request
	n := 0 // arrivals so far in this phase
	for t := rng.ExpFloat64() / rate; t < (warm + length).Seconds(); t += rng.ExpFloat64() / rate {
		rq := request{due: time.Duration(t * float64(time.Second)), mode: model.Modes[rng.Intn(2)]}
		if len(out) > 0 && out[len(out)-1].due < warm && rq.due >= warm {
			n = 0
		}
		if n++; n%20 == 1 {
			rq.edit = true
			rq.arc = d.Arcs[arcs[rng.Intn(len(arcs))]]
			rq.win = bump(rq.arc, rng)
		} else {
			rq.k = []int{1, 10, 100}[rng.Intn(3)]
		}
		out = append(out, rq)
	}
	return out
}

// server is an in-process serve.Server on a loopback listener, and a
// client limited to one connection per core.
type server struct {
	srv *serve.Server
	// h holds the loaded design for the server's life; its timer is the
	// one every request reaches.
	h        *serve.Handle
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	design   *model.Design
	shutdown sync.Once
}

// startServer loads d into a fresh server with the default Config and
// starts serving it.
func (r *run) startServer(st *setupTimes, d *model.Design) (*server, error) {
	s := &server{srv: serve.New(serve.Config{}), served: make(chan error, 1), design: d}
	start := time.Now()
	id := r.tr.begin(0, "serve.Registry.Load")
	err := s.srv.Registry().Load(serveID, d)
	r.tr.end(id, nil)
	st.newTimer = time.Since(start)
	if err == nil {
		s.h, err = s.srv.Registry().Acquire(serveID)
	}
	if err != nil {
		s.srv.Close(time.Second)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.h.Release()
		s.srv.Close(time.Second)
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	n := runtime.NumCPU()
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	return s, nil
}

// close stops the listener, drains the server and waits for both.
func (s *server) close() {
	s.shutdown.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.hs.Shutdown(ctx) // an unclean shutdown still returns once Serve has
		<-s.served
		s.h.Release()
		s.srv.Close(10 * time.Second)
		s.client.CloseIdleConnections()
	})
}

// post sends body as JSON and decodes a 200 answer into out.
func (s *server) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// query runs one global top-k query over HTTP.
func (s *server) query(ctx context.Context, k int, mode model.Mode) (serve.QueryResponse, error) {
	var resp serve.QueryResponse
	err := s.post(ctx, "/v1/query", serve.QueryRequest{Design: serveID, K: k, Mode: mode.String()}, &resp)
	return resp, err
}

// edit sends one arc edit over HTTP.
func (s *server) edit(ctx context.Context, rq request) error {
	var resp map[string]string
	return s.post(ctx, "/v1/designs/"+serveID+"/arc", serve.EditRequest{
		From: s.design.PinName(rq.arc.From), To: s.design.PinName(rq.arc.To),
		EarlyPs: rq.win.Early.Ps(), LatePs: rq.win.Late.Ps(),
	}, &resp)
}

// warmServer sends one request of every query shape.
func (r *run) warmServer(s *server) error {
	for _, k := range []int{1, 10, 100} {
		for _, m := range model.Modes {
			if _, err := s.query(r.ctx, k, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// outcome is one request's result.
type outcome struct {
	edit     bool
	traced   bool
	latMs    float64 // completion minus due time; +Inf when it failed
	clientUs float64 // HTTP send to response, for global queries
	timing   serve.TimingBreakdown
	err      error
}

// loadResult is one open-loop run: the outcomes and generator lateness
// of the requests due inside the measured window, and what the window
// cost.
type loadResult struct {
	out    []outcome
	lateMs []float64
	// backlog is how many released requests no sender had picked up when
	// the last one was released: near zero unless the load outruns the
	// server.
	backlog       int64
	cost          window
	before, after cppr.TimerStats
}

// openLoop sends reqs on schedule from at most one connection per core:
// a dispatcher releases each request at its due time into a queue that
// nproc senders drain. A request is timed from its due time, so the wait
// of a request the senders have not reached yet counts. Requests due
// before warm are sent but not measured. In a traced run a coin picks the
// measured requests to trace.
func (r *run) openLoop(s *server, reqs []request, warm time.Duration) loadResult {
	traced := make([]bool, len(reqs))
	coin := traceCoin(r.seed)
	for i, rq := range reqs {
		traced[i] = rq.due >= warm && coin()
	}
	out := make([]outcome, len(reqs))
	late := make([]float64, len(reqs))
	queue := make(chan int, len(reqs)) // sized to every send: the dispatcher never blocks
	var picked atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				picked.Add(1)
				var tr *tracer
				if traced[i] {
					tr = r.tr
				}
				out[i] = r.send(s, tr, reqs[i], start)
			}
		}()
	}
	var res loadResult
	first := len(reqs) // the first measured request, once released
	for i, rq := range reqs {
		if wait := rq.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if first == len(reqs) && rq.due >= warm {
			first, res.cost, res.before = i, openWindow(), s.h.Timer().Stats()
		}
		late[i] = ms(time.Since(start) - rq.due)
		queue <- i
	}
	res.backlog = int64(len(reqs)) - picked.Load()
	close(queue)
	wg.Wait()
	if first == len(reqs) {
		res.cost, res.before = openWindow(), s.h.Timer().Stats()
	}
	res.cost, res.after = res.cost.close(), s.h.Timer().Stats()
	res.out, res.lateMs = out[first:], late[first:]
	return res
}

// send executes one request.
func (r *run) send(s *server, tr *tracer, rq request, start time.Time) outcome {
	due := start.Add(rq.due)
	o := outcome{edit: rq.edit, traced: tr != nil}
	root := tr.record(0, "op.request", due, time.Time{}, nil)
	tr.record(root, "loadgen.queue", due, time.Now(), nil)
	if rq.edit {
		_, o.err = timed(tr, root, "http.edit", func() (struct{}, error) { return struct{}{}, s.edit(r.ctx, rq) })
	} else {
		sent := time.Now()
		id := tr.begin(root, "http.query")
		resp, err := s.query(r.ctx, rq.k, rq.mode)
		recv := time.Now()
		tr.end(id, map[string]any{"k": rq.k, "mode": rq.mode.String()})
		o.err, o.timing = err, resp.Timing
		o.clientUs = float64(recv.Sub(sent).Nanoseconds()) / 1e3
		if err == nil {
			serverSpans(tr, id, sent, recv, resp.Timing)
		}
	}
	o.latMs = ms(time.Since(due))
	if o.err != nil {
		o.latMs = math.Inf(1)
	}
	tr.end(root, nil)
	return o
}

// serverSpans rebuilds the server side of one HTTP query from its
// TimingBreakdown: the handler span sits centred in the client's
// send-to-response interval, and admission, batch wait and the shared
// ReportBatch execution follow each other inside it.
func serverSpans(tr *tracer, parent int64, sent, recv time.Time, tb serve.TimingBreakdown) {
	if tr == nil {
		return
	}
	total := time.Duration(tb.TotalUs) * time.Microsecond
	hs := sent.Add((recv.Sub(sent) - total) / 2)
	h := tr.record(parent, "serve.handler", hs, hs.Add(total), map[string]any{"batch_size": tb.BatchSize})
	at := hs
	for _, part := range []struct {
		name string
		us   int64
	}{{"serve.admission", tb.AdmissionUs}, {"serve.batch_wait", tb.BatchWaitUs}, {"cppr.ReportBatch", tb.ExecUs}} {
		end := at.Add(time.Duration(part.us) * time.Microsecond)
		tr.record(h, part.name, at, end, nil)
		at = end
	}
}

// serveWorkload is the open-loop serving mix at rate requests per second.
func serveWorkload(rate float64) func(*run) error {
	return func(r *run) error {
		s, err := setUp(r, func(st *setupTimes) (*server, error) {
			d, err := r.readDesign(st)
			if err != nil {
				return nil, err
			}
			s, err := r.startServer(st, d)
			if err != nil {
				return nil, err
			}
			if err := st.warm(func() error { return r.warmServer(s) }); err != nil {
				s.close()
				return nil, err
			}
			return s, nil
		}, (*server).close)
		if err != nil {
			return err
		}
		defer s.close()
		rng := rand.New(rand.NewSource(r.seed))
		res := r.openLoop(s, schedule(s.design, rate, r.serveWarm, r.seconds, rng), r.serveWarm)
		r.ops, r.load = len(res.out), res.cost
		r.addStats(res.before, res.after)
		for _, o := range res.out {
			r.attempted++
			if o.err != nil {
				r.fail(fmt.Errorf("request: %w", o.err))
			}
			if o.traced {
				r.latTraced = append(r.latTraced, o.latMs)
			} else {
				r.lat = append(r.lat, o.latMs)
			}
		}
		r.serveLayer(res)
		r.checkServer(s)
		if r.tr == nil {
			return nil
		}
		return r.probe(s.h.Timer())
	}
}

// checkServer compares, once the load has drained, every global query
// shape answered over HTTP with a fresh NoCache timer on the registry's
// current design.
func (r *run) checkServer(s *server) {
	fresh := cppr.NewTimer(s.h.Timer().Design())
	for _, k := range []int{1, 10, 100} {
		for _, m := range model.Modes {
			r.check(func() error {
				resp, err := s.query(r.ctx, k, m)
				if err != nil {
					return err
				}
				want, err := fresh.Run(r.ctx, cppr.Query{K: k, Mode: m, NoCache: true})
				if err != nil {
					return err
				}
				if len(resp.Report.Paths) != len(want.Paths) {
					return fmt.Errorf("k=%d %v: %d paths over HTTP, %d fresh", k, m, len(resp.Report.Paths), len(want.Paths))
				}
				for i, p := range resp.Report.Paths {
					if p.SlackPs != want.Paths[i].Slack.Ps() {
						return fmt.Errorf("k=%d %v: path %d slack %d ps over HTTP, %d ps fresh", k, m, i, p.SlackPs, want.Paths[i].Slack.Ps())
					}
				}
				return nil
			})
		}
	}
}

// serveLayer records the serve per-layer metrics of one open-loop run.
func (r *run) serveLayer(res loadResult) {
	var wait, batchWait, exec, http, batch, global, edit []float64
	for _, o := range res.out {
		if o.err != nil {
			continue
		}
		if o.edit {
			edit = append(edit, o.latMs)
			continue
		}
		global = append(global, o.latMs)
		t := o.timing
		wait = append(wait, float64(t.AdmissionUs+t.BatchWaitUs))
		batchWait = append(batchWait, float64(t.BatchWaitUs))
		exec = append(exec, float64(t.ExecUs)/1e3)
		http = append(http, o.clientUs-float64(t.TotalUs))
		batch = append(batch, float64(t.BatchSize))
	}
	m := r.layer
	m["serve.wait_us_p99"] = percentile(wait, 99)
	m["serve.batch_wait_us_p50"] = percentile(batchWait, 50)
	m["serve.exec_ms_p50"] = percentile(exec, 50)
	m["serve.exec_ms_p99"] = percentile(exec, 99)
	m["serve.http_us_p50"] = percentile(http, 50)
	var sum float64
	for _, b := range batch {
		sum += b
	}
	m["serve.mean_batch"] = ratio(sum, float64(len(batch)))
	m["serve.global_ms_p50"] = percentile(global, 50)
	m["serve.edit_ms_p50"] = percentile(edit, 50)
	m["loadgen.late_ms_p99"] = percentile(res.lateMs, 99)
	m["loadgen.backlog_end"] = float64(res.backlog)
}

// serveProbe gives a traced run of a non-serving workload its serve
// metrics: d is served for r.httpProbe at 50 req/s with the serve mix.
func (r *run) serveProbe(d *model.Design) error {
	s, err := r.startServer(&setupTimes{}, d)
	if err != nil {
		return err
	}
	defer s.close()
	if err := r.warmServer(s); err != nil {
		return err
	}
	const warm = 250 * time.Millisecond
	res := r.openLoop(s, schedule(d, 50, warm, r.httpProbe, rand.New(rand.NewSource(r.seed))), warm)
	for _, o := range res.out {
		if o.err != nil {
			return fmt.Errorf("serve probe: request: %w", o.err)
		}
	}
	if len(res.out) == 0 {
		return errors.New("serve probe: no request measured")
	}
	r.serveLayer(res)
	return nil
}
