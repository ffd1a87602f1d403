package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/internal/faultinject"
	"fastcppr/model"
)

// newTestServer builds a Server plus an httptest front; the cleanup
// drains the server before closing the listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		if !s.Close(10 * time.Second) {
			t.Error("server did not drain within 10s")
		}
		hs.Close()
	})
	return s, hs
}

// loadMedium registers a generated medium design under id, bypassing
// the preset generator for speed.
func loadMedium(t *testing.T, s *Server, id string, seed int64) *model.Design {
	t.Helper()
	d := gen.MustGenerate(gen.Medium(seed))
	if err := s.Registry().Load(id, d); err != nil {
		t.Fatal(err)
	}
	return d
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func queryOK(t *testing.T, base string, req QueryRequest) QueryResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

func TestLoadQueryListEvict(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL

	// Load via the HTTP surface (smallest preset scale, plus corners).
	resp, body := postJSON(t, base+"/v1/designs", LoadRequest{
		ID: "d1", Preset: gen.PresetNames()[0], Scale: 0.003, Corners: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d: %s", resp.StatusCode, body)
	}
	var info DesignInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Corners != 2 || info.FFs == 0 {
		t.Fatalf("load info = %+v", info)
	}

	// Duplicate id refuses.
	resp, _ = postJSON(t, base+"/v1/designs", LoadRequest{ID: "d1", Preset: gen.PresetNames()[0], Scale: 0.003})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate load: status %d, want 400", resp.StatusCode)
	}

	// Query, single- and multi-corner.
	qr := queryOK(t, base, QueryRequest{Design: "d1", K: 5})
	if len(qr.Report.Paths) == 0 {
		t.Fatal("query returned no paths")
	}
	if qr.Timing.TotalUs <= 0 || qr.Timing.BatchSize < 1 {
		t.Fatalf("timing breakdown not populated: %+v", qr.Timing)
	}
	qr = queryOK(t, base, QueryRequest{Design: "d1", K: 5, Corners: "all", Mode: "hold"})
	if len(qr.Report.Corners) != 2 {
		t.Fatalf("multi-corner report corners = %v, want 2 names", qr.Report.Corners)
	}

	// List.
	resp2, err := http.Get(base + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	listBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var list []DesignInfo
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "d1" {
		t.Fatalf("list = %+v", list)
	}

	// Evict (waits for drain), then the id is gone with 404.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/designs/d1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d, want 200", dresp.StatusCode)
	}
	resp, body = postJSON(t, base+"/v1/query", QueryRequest{Design: "d1", K: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after evict: status %d, want 404: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "unknown_design" {
		t.Fatalf("error body = %s", body)
	}
}

// TestShedTypedErrorAndRetryAfter saturates a 1-slot, 1-queue server
// while a latency fault holds the in-service request, and checks the
// overload contract: shed requests get 429 + Retry-After + the typed
// "overloaded" kind, admitted requests complete, nothing hangs.
func TestShedTypedErrorAndRetryAfter(t *testing.T) {
	disarm := faultinject.Arm("serve.batcher.flush", faultinject.Fault{Delay: 50 * time.Millisecond})
	defer disarm()
	s, hs := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, MaxBatch: 1})
	loadMedium(t, s, "d", 1)

	const burst = 12
	var wg sync.WaitGroup
	codes := make([]int, burst)
	kinds := make([]string, burst)
	retryAfter := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "d", K: 5})
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			var eb errorBody
			if json.Unmarshal(body, &eb) == nil {
				kinds[i] = eb.Kind
			}
		}(i)
	}
	wg.Wait()

	served, shed := 0, 0
	for i := range codes {
		switch codes[i] {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			if kinds[i] != "overloaded" {
				t.Errorf("shed request %d: kind %q, want overloaded", i, kinds[i])
			}
			if retryAfter[i] == "" {
				t.Errorf("shed request %d: missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, codes[i])
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("burst: %d served, %d shed — want both > 0", served, shed)
	}
	st := s.stats()
	if st.Shed == 0 || st.Admitted == 0 {
		t.Fatalf("server counters not updated: %+v", st)
	}
	if ds := st.PerDesign["d"]; ds.ServedShed == 0 || ds.ServedAdmitted == 0 {
		t.Fatalf("per-design served counters not updated: %+v", ds)
	}
}

// TestDeadlinePropagation: a request deadline rides into the engine as
// a context; a held worker makes the query exceed it and the client
// gets the typed 504, while the server stays healthy for the next
// query.
func TestDeadlinePropagation(t *testing.T) {
	disarm := faultinject.Arm("core.worker", faultinject.Fault{Delay: 300 * time.Millisecond})
	s, hs := newTestServer(t, Config{MaxBatch: 1})
	loadMedium(t, s, "d", 2)

	resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "d", K: 5, TimeoutMs: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("starved query: status %d, want 504: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "deadline_exceeded" {
		t.Fatalf("error body = %s", body)
	}
	disarm()
	queryOK(t, hs.URL, QueryRequest{Design: "d", K: 5})
}

// TestPanicContainmentPerRequest: an injected panic in the registry
// path answers one request with a typed 500; the process (and the next
// request) survive.
func TestPanicContainmentPerRequest(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	loadMedium(t, s, "d", 3)

	disarm := faultinject.Arm("serve.registry.acquire", faultinject.Fault{Panic: "injected chaos"})
	resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "d", K: 1})
	disarm()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned query: status %d, want 500: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "internal" {
		t.Fatalf("error body = %s", body)
	}
	queryOK(t, hs.URL, QueryRequest{Design: "d", K: 1})
}

// TestBatcherPanicContainment: a panic inside the flush path must
// answer every batched request with the internal kind — not kill the
// collector or strand the repliers.
func TestBatcherPanicContainment(t *testing.T) {
	s, hs := newTestServer(t, Config{MaxBatch: 4, MaxWait: 20 * time.Millisecond})
	loadMedium(t, s, "d", 4)

	disarm := faultinject.Arm("serve.batcher.flush", faultinject.Fault{Panic: "flush chaos"})
	resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "d", K: 1})
	disarm()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	queryOK(t, hs.URL, QueryRequest{Design: "d", K: 1})
}

// TestGracefulShutdown: Close refuses new queries with the typed 503,
// drains in-flight ones to completion, and flips healthz.
func TestGracefulShutdown(t *testing.T) {
	disarm := faultinject.Arm("serve.batcher.flush", faultinject.Fault{Delay: 100 * time.Millisecond})
	defer disarm()
	s := New(Config{MaxBatch: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	loadMedium(t, s, "d", 5)

	// Put one slow query in flight, then drain while it runs.
	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		buf, _ := json.Marshal(QueryRequest{Design: "d", K: 5})
		resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			inflight <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: b}
	}()
	time.Sleep(30 * time.Millisecond) // let it pass admission and reach the flush

	if !s.Close(10 * time.Second) {
		t.Fatal("drain did not complete")
	}
	got := <-inflight
	if got.code != http.StatusOK {
		t.Fatalf("in-flight query during drain: status %d: %s", got.code, got.body)
	}

	resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "d", K: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query: status %d, want 503: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "shutting_down" {
		t.Fatalf("error body = %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shutdown refusal missing Retry-After")
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}
}

// TestEvictDrainsInFlight: eviction must wait for queries holding refs
// and the drained query must still complete correctly.
func TestEvictDrainsInFlight(t *testing.T) {
	disarm := faultinject.Arm("serve.batcher.flush", faultinject.Fault{Delay: 80 * time.Millisecond})
	defer disarm()
	s, hs := newTestServer(t, Config{MaxBatch: 1})
	loadMedium(t, s, "d", 6)

	done := make(chan int, 1)
	go func() {
		buf, _ := json.Marshal(QueryRequest{Design: "d", K: 5})
		resp, err := http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/designs/d", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight query during evict: status %d", code)
	}
}

// TestMetricsCSV checks the flat metric surface: header, server rows,
// per-design served counters.
func TestMetricsCSV(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	loadMedium(t, s, "d", 7)
	queryOK(t, hs.URL, QueryRequest{Design: "d", K: 3})

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"metric,design,value\n",
		"admitted_total,,",
		"served_admitted,d,1",
		"query_memo_misses,d,",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestEditEndpoint edits an arc over HTTP and checks the report moved.
func TestEditEndpoint(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	d := loadMedium(t, s, "d", 8)

	before := queryOK(t, hs.URL, QueryRequest{Design: "d", K: 1})
	// Grow the delay of the first arc on the critical path's data
	// portion and expect the worst slack to drop.
	var from, to string
	var win model.Window
	for _, a := range d.Arcs {
		if !d.IsClockPin(a.From) {
			from, to = d.PinName(a.From), d.PinName(a.To)
			win = a.Delay
			break
		}
	}
	resp, body := postJSON(t, hs.URL+"/v1/designs/d/arc", EditRequest{
		From: from, To: to,
		EarlyPs: win.Early.Ps(), LatePs: win.Late.Ps() + 10000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edit: status %d: %s", resp.StatusCode, body)
	}
	after := queryOK(t, hs.URL, QueryRequest{Design: "d", K: 1})
	if len(before.Report.Paths) == 0 || len(after.Report.Paths) == 0 {
		t.Fatal("missing paths")
	}
	if after.Report.Paths[0].SlackPs > before.Report.Paths[0].SlackPs {
		t.Fatalf("slack improved after a delay increase: %d -> %d",
			before.Report.Paths[0].SlackPs, after.Report.Paths[0].SlackPs)
	}
	// Stats must show the journaled edit (or a rebuild, if the arc fed
	// the clock tree — EditSeq 0 — but the query must still be served).
	st := s.stats().PerDesign["d"]
	if st.ServedAdmitted < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCoalescingHappens: concurrent identical queries against a
// MaxBatch>1 server must share a flush (batch_size > 1) for at least
// one request once the batcher has a chance to group them.
func TestCoalescingHappens(t *testing.T) {
	disarm := faultinject.Arm("serve.batcher.flush", faultinject.Fault{Delay: 10 * time.Millisecond})
	defer disarm()
	s, hs := newTestServer(t, Config{MaxBatch: 8, MaxWait: 25 * time.Millisecond})
	loadMedium(t, s, "d", 9)

	const n = 8
	sizes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr := queryOK(t, hs.URL, QueryRequest{Design: "d", K: 5})
			sizes[i] = qr.Timing.BatchSize
		}(i)
	}
	wg.Wait()
	max := 0
	for _, v := range sizes {
		if v > max {
			max = v
		}
	}
	if max < 2 {
		t.Fatalf("no request was coalesced: batch sizes %v", sizes)
	}
	if st := s.stats().PerDesign["d"]; st.ServedCoalesced == 0 {
		t.Fatalf("ServedCoalesced = 0 after coalesced burst: %+v", st)
	}
}

// TestUnknownAndInvalid checks the 4xx surface.
func TestUnknownAndInvalid(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	resp, _ := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "nope", K: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown design: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "nope", K: 1, Mode: "frob"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", resp.StatusCode)
	}
	// The retired inexact rerank heuristic is an unknown algorithm.
	loadMedium(t, s, "m", 1)
	resp, body := postJSON(t, hs.URL+"/v1/query", QueryRequest{Design: "m", K: 1, Algorithm: "rerank"})
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Kind != "invalid" {
		t.Fatalf("algorithm rerank: status %d body %s, want 400 kind invalid", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/designs/nope", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("evict unknown: status %d, want 404", dresp.StatusCode)
	}
}

// TestServedResultsMatchDirect: a report served through the whole stack
// (admission, batcher, JSON) must equal a direct Timer.Run on an
// identical design.
func TestServedResultsMatchDirect(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	loadMedium(t, s, "d", 10)
	ref := cppr.NewTimer(gen.MustGenerate(gen.Medium(10)))

	for _, k := range []int{1, 7, 50} {
		qr := queryOK(t, hs.URL, QueryRequest{Design: "d", K: k})
		rep, err := ref.Run(context.Background(), cppr.Query{K: k, Mode: model.Setup})
		if err != nil {
			t.Fatal(err)
		}
		want := rep.JSON(ref.Design(), model.Setup, k)
		if len(qr.Report.Paths) != len(want.Paths) {
			t.Fatalf("k=%d: %d served paths vs %d direct", k, len(qr.Report.Paths), len(want.Paths))
		}
		for i := range want.Paths {
			if qr.Report.Paths[i].SlackPs != want.Paths[i].SlackPs {
				t.Fatalf("k=%d path %d: served slack %d, direct %d",
					k, i, qr.Report.Paths[i].SlackPs, want.Paths[i].SlackPs)
			}
		}
	}
}
