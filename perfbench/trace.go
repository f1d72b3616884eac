package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	indoorpath "indoorpath"
	"indoorpath/internal/batchplan"
	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/server"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// traceRequests caps how many measured requests the traced run replays
// per workload, so every layer pass takes a few seconds.
var traceRequests = map[string]int{"scatter": 400, "crowd": 1000, "kiosk": 600, "flips": 1000}

// span is one timed call into a layer's entry point. Spans of one
// request share its index; a layer's children are the spans of the
// next boundary down for the same request, recorded by the next pass.
type span struct {
	Req    int    `json:"req"`
	Entry  int    `json:"entry"` // query within a batch request
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// recorder collects spans in memory; they are written when the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(req, entry int, layer, parent string, start, end time.Time) span {
	s := span{Req: req, Entry: entry, Layer: layer, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (r *recorder) layer(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Layer == name {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stack is one in-process serving stack, built the way itspqd builds
// it, plus a standing coalescer per method pool.
type stack struct {
	ve   *indoorpath.ServedVenue
	srv  *indoorpath.Server
	coal [3]*indoorpath.Coalescer
}

func newStack() (*stack, error) {
	reg := indoorpath.NewVenueRegistry(poolOptions)
	if _, err := reg.AddPresets(venueID); err != nil {
		return nil, err
	}
	ve, _ := reg.Get(venueID)
	st := &stack{ve: ve, srv: indoorpath.NewServer(reg, serverOptions)}
	for m := range st.coal {
		st.coal[m] = indoorpath.NewCoalescer(ve.Pool(core.Method(m)), indoorpath.CoalescerOptions{})
	}
	return st, nil
}

// pools lists the stack's method pools.
func (st *stack) pools() []*indoorpath.ServicePool {
	return []*indoorpath.ServicePool{st.ve.Pool(core.MethodSyn), st.ve.Pool(core.MethodAsyn), st.ve.Pool(core.MethodStatic)}
}

// poolStats sums the method pools' counters.
func (st *stack) poolStats() service.Stats {
	var s service.Stats
	for _, p := range st.pools() {
		ps := p.Stats()
		s.Queries += ps.Queries
		s.CacheHits += ps.CacheHits
		s.WindowHits += ps.WindowHits
		s.SkeletonHits += ps.SkeletonHits
		s.Deduped += ps.Deduped
		s.EngineSearches += ps.EngineSearches
		s.SharedAnswers += ps.SharedAnswers
		s.Windows += ps.Windows
		s.SkelFamilies += ps.SkelFamilies
		s.WindowEvictions += ps.WindowEvictions
		s.SkelEvictions += ps.SkelEvictions
		s.Reasons = s.Reasons.Add(ps.Reasons)
	}
	return s
}

func (st *stack) coalStats() indoorpath.CoalescerStats {
	var s indoorpath.CoalescerStats
	for _, c := range st.coal {
		cs := c.Stats()
		s.Queries += cs.Queries
		s.Flushes += cs.Flushes
		s.HoldSumNanos += cs.HoldSumNanos
	}
	return s
}

// scheduleUpdate is a flip update as the venue applies it.
func scheduleUpdate(v *model.Venue, doors []string, closeDoors bool) map[model.DoorID]temporal.Schedule {
	out := map[model.DoorID]temporal.Schedule{}
	for _, name := range doors {
		id, _ := v.DoorByName(name)
		if closeDoors {
			out[id] = temporal.Schedule{}
		} else {
			out[id] = nil
		}
	}
	return out
}

// replay runs do over reqs with clients goroutines in a closed loop.
func replay(reqs []request, clients int, do func(i int, r *request)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				do(i, &reqs[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// serveHTTP sends one request through Server.ServeHTTP.
func serveHTTP(srv *indoorpath.Server, r *request) *httptest.ResponseRecorder {
	method, path := http.MethodPost, "/v1/venues/"+venueID+"/route"
	switch r.kind {
	case kindBatch:
		path += ":batch"
	case kindUpdate:
		method, path = http.MethodPut, "/v1/venues/"+venueID+"/schedules"
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// layer2 sends one request to the boundary below ServeHTTP: the
// method's coalescer for a solo route, Pool.RouteBatchSummary for a
// batch, Venue.UpdateSchedules for an update. It returns the span's
// layer name.
func (st *stack) layer2(r *request, flipDoors []string) string {
	switch r.kind {
	case kindRoute:
		st.coal[r.method].Route(r.queries[0])
		return "coalesce"
	case kindBatch:
		st.ve.Pool(r.method).RouteBatchSummary(r.queries)
		return "batch"
	}
	_, _ = st.ve.UpdateSchedules(scheduleUpdate(st.ve.Model(), flipDoors, r.closeDoors))
	return "venue.update"
}

// traced is the traced run's output.
type traced struct {
	e2e    map[string]metric // the traced replay's own end-to-end numbers
	layers map[string]metric
}

// traceRun replays the workload's inputs in process, once per layer
// boundary, on a fresh stack each time: Server.ServeHTTP; then
// Coalescer.Route for solo routes or Pool.RouteBatchSummary for
// batches; then Pool.RouteResult per query; then a single-client pass
// for the counts meant to repeat exactly; then the core, model, dmat,
// temporal and itgraph entry points each outcome uses.
func traceRun(cfg config, w *workload, e *e2eRun) (*traced, error) {
	meas := withProbeUpdates(w, e.reqs[:min(traceRequests[w.name], len(e.reqs))])
	rec := &recorder{t0: time.Now()}
	out := &traced{e2e: map[string]metric{}, layers: map[string]metric{}}
	L := out.layers

	sp, err := singleClientPass(w, meas)
	if err != nil {
		return nil, err
	}
	for k, v := range sp.metrics {
		L[k] = v
	}
	wireTimes(meas, sp.bodies, L)

	// Pass 1: Server.ServeHTTP.
	t0 := time.Now()
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	replay(w.warm, cfg.clients, func(i int, r *request) { serveHTTP(st.srv, r) })
	var failed atomic.Int64
	cpu0 := processCPU()
	elapsed := replay(meas, cfg.clients, func(i int, r *request) {
		start := time.Now()
		resp := serveHTTP(st.srv, r)
		layer := "server"
		if r.kind == kindUpdate {
			layer = "server.update"
		}
		rec.add(i, -1, layer, "", start, time.Now())
		if resp.Code != http.StatusOK {
			failed.Add(1)
		}
	})
	cpu1 := processCPU()
	if f := failed.Load(); f > 0 {
		return nil, fmt.Errorf("traced replay: %d requests failed through ServeHTTP", f)
	}
	answers := 0
	for i := range meas {
		answers += meas[i].answers()
	}
	serverSpans := rec.layer("server")
	var readUs []float64
	for _, s := range serverSpans {
		readUs = append(readUs, s.us())
	}
	rss, _ := procStatusMB(os.Getpid(), "VmRSS:")
	peak, _ := procStatusMB(os.Getpid(), "VmHWM:")
	out.e2e["setup_s"] = metric{Value: setup, Unit: "s"}
	out.e2e["qps"] = metric{Value: float64(answers) / elapsed.Seconds(), Unit: "queries/s"}
	out.e2e["p50_ms"] = metric{Value: median(readUs) / 1e3, Unit: "ms"}
	out.e2e["p99_ms"] = metric{Value: quantile(readUs, 0.99) / 1e3, Unit: "ms"}
	out.e2e["cpu_ms_per_query"] = metric{Value: (cpu1 - cpu0) * 1e3 / float64(answers), Unit: "ms"}
	out.e2e["rss_mb"] = metric{Value: rss, Unit: "MB"}
	out.e2e["peak_rss_mb"] = metric{Value: peak, Unit: "MB"}
	out.e2e["update_ms"] = metric{Value: median(spanUs(rec.layer("server.update"))) / 1e3, Unit: "ms"}
	L["server.update_ms"] = out.e2e["update_ms"]

	// client.overhead_us: the untraced run's client-observed latency
	// minus ServeHTTP time for the same request.
	var over []float64
	for _, s := range serverSpans {
		if s.Req < len(e.recs) {
			over = append(over, float64(e.recs[s.Req].latency)/1e3-s.us())
		}
	}
	L["client.overhead_us"] = metric{Value: median(over), Unit: "us"}

	// Pass 2: Coalescer.Route for solo routes, Pool.RouteBatchSummary for
	// batches, Venue.UpdateSchedules for updates.
	st, err = newStack()
	if err != nil {
		return nil, err
	}
	routeL2 := func(i int, r *request, record bool) {
		start := time.Now()
		layer := st.layer2(r, w.flipDoors)
		if record {
			rec.add(i, -1, layer, "server", start, time.Now())
		}
	}
	replay(w.warm, cfg.clients, func(i int, r *request) { routeL2(i, r, false) })
	ps0, cs0 := st.poolStats(), st.coalStats()
	replay(meas, cfg.clients, func(i int, r *request) { routeL2(i, r, true) })
	ps1, cs1 := st.poolStats(), st.coalStats()
	// Batches bypass the coalescer: on kiosk nothing is held.
	if held := cs1.Queries - cs0.Queries; held > 0 {
		L["coalesce.hold_us"] = metric{Value: float64(cs1.HoldSumNanos-cs0.HoldSumNanos) / 1e3 / float64(held), Unit: "us"}
		L["coalesce.queries_per_flush"] = metric{Value: ratio(held, cs1.Flushes-cs0.Flushes), Unit: "queries"}
		L["coalesce.shared_ratio"] = metric{Value: ratio(ps1.SharedAnswers-ps0.SharedAnswers+ps1.Deduped-ps0.Deduped, held), Unit: "ratio"}
	} else {
		L["coalesce.hold_us"] = notApplicable("us")
		L["coalesce.queries_per_flush"] = notApplicable("queries")
		L["coalesce.shared_ratio"] = notApplicable("ratio")
	}
	L["service.epoch_raced"] = metric{Value: float64(ps1.Reasons.MissEpochRaced - ps0.Reasons.MissEpochRaced), Unit: "count"}

	// Pass 3: Pool.RouteResult per query; updates through
	// Pool.UpdateSchedules on every method pool.
	st, err = newStack()
	if err != nil {
		return nil, err
	}
	v := st.ve.Model()
	byHit := map[service.Hit][]float64{}
	var mu sync.Mutex // guards byHit and swapMs
	var swapMs []float64
	routeL3 := func(i int, r *request, record bool) {
		if r.kind == kindUpdate {
			upd := scheduleUpdate(v, w.flipDoors, r.closeDoors)
			for _, p := range st.pools() {
				start := time.Now()
				if err := p.UpdateSchedules(upd); err != nil {
					failed.Add(1)
				}
				if record {
					s := rec.add(i, -1, "service.swap", "venue.update", start, time.Now())
					mu.Lock()
					swapMs = append(swapMs, s.us()/1e3)
					mu.Unlock()
				}
			}
			return
		}
		pool := st.ve.Pool(r.method)
		for j, q := range r.queries {
			start := time.Now()
			res := pool.RouteResult(q)
			if record {
				s := rec.add(i, j, "service", "coalesce", start, time.Now())
				mu.Lock()
				byHit[res.Hit] = append(byHit[res.Hit], s.us())
				mu.Unlock()
			}
		}
	}
	replay(w.warm, cfg.clients, func(i int, r *request) { routeL3(i, r, false) })
	replay(meas, cfg.clients, func(i int, r *request) { routeL3(i, r, true) })
	if f := failed.Load(); f > 0 {
		return nil, fmt.Errorf("traced replay: %d schedule updates failed", f)
	}
	L["service.miss_us"] = meanOrNA(byHit[service.HitMiss], "us")
	L["service.window_hit_us"] = meanOrNA(byHit[service.HitWindow], "us")
	L["service.skeleton_hit_us"] = meanOrNA(byHit[service.HitSkeleton], "us")
	L["service.swap_ms"] = metric{Value: median(swapMs), Unit: "ms"}

	// Pass 4: the core and lower entry points, on the outcomes of the
	// single-client pass.
	runtime.GC()
	cp := corePass(w, append(append([]request(nil), w.warm...), meas...), sp.hits, len(w.warm), rec)
	for k, v := range cp.metrics {
		L[k] = v
	}
	// Self time per query: its RouteResult span less the core time its
	// outcome accounts for, paired query by query; the median, because
	// on a miss both sides are milliseconds and the self time is not.
	var self []float64
	for _, sp := range rec.layer("service") {
		self = append(self, sp.us()-cp.childUs[[2]int{sp.Req, sp.Entry}])
	}
	L["service.self_us"] = metric{Value: median(self), Unit: "us"}

	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		if err := rec.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("traced run: %d spans written to %s\n", len(rec.spans), path)
	}
	return out, nil
}

// withProbeUpdates appends the post-phase update probe to a request
// list, as the untraced run sends it.
func withProbeUpdates(w *workload, reqs []request) []request {
	out := append([]request(nil), reqs...)
	for i := 0; i < probeWarmUpdates+probeUpdates; i++ {
		out = append(out, w.updates[i%2])
	}
	return out
}

// processCPU is this process's user + system CPU in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func spanUs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.us()
	}
	return out
}

// notApplicable stands for a per-layer metric the workload does not
// exercise: reported as 0, printed as n/a.
func notApplicable(unit string) metric { return metric{Unit: unit, na: true} }

// meanOrNA is the mean of the samples, or n/a without samples.
func meanOrNA(xs []float64, unit string) metric {
	if len(xs) == 0 {
		return notApplicable(unit)
	}
	return metric{Value: mean(xs), Unit: unit}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// singlePass holds what the single-client pass yields: per-answer
// outcomes for the core pass and the counts meant to repeat exactly.
type singlePass struct {
	// hits[i][j] is the provenance of answer j of request i of the
	// warm-up followed by the measured requests ("dedup" for a batch
	// entry shared from an identical one).
	hits [][]string
	// bodies[i] is the response body of measured request i.
	bodies  [][]byte
	metrics map[string]metric
}

// singleClientPass sends the warm-up and the measured requests through
// Server.ServeHTTP from one client: each coalescer flush holds one
// query and no two requests race, so provenance, pool counters and
// response bytes repeat exactly for a seed. Each request also goes to
// the boundary below ServeHTTP on a twin stack, right after, so the
// server's self time is a paired difference under the same load.
func singleClientPass(w *workload, meas []request) (*singlePass, error) {
	st, err := newStack()
	if err != nil {
		return nil, err
	}
	twin, err := newStack()
	if err != nil {
		return nil, err
	}
	sp := &singlePass{metrics: map[string]metric{}}
	for i := range w.warm {
		twin.layer2(&w.warm[i], w.flipDoors)
		resp := serveHTTP(st.srv, &w.warm[i])
		if resp.Code != http.StatusOK {
			return nil, fmt.Errorf("single-client warm-up request %d: HTTP %d", i, resp.Code)
		}
		hits, err := wireHits(&w.warm[i], resp.Body.Bytes())
		if err != nil {
			return nil, err
		}
		sp.hits = append(sp.hits, hits)
	}
	sp.hits = append(sp.hits, make([][]string, len(meas))...)
	sp.bodies = make([][]byte, len(meas))
	lastRead := -1
	for i := range meas {
		if meas[i].kind != kindUpdate {
			lastRead = i
		}
	}
	// Counters cover the measured reads; the update probe that follows
	// them in scatter, crowd and kiosk drops the stores and is left out.
	s0 := st.poolStats()
	sEnd := s0
	occ := s0.SkelFamilies // families present at the start of the segment
	built := int64(0)
	var ms0, ms1 runtime.MemStats
	var bytesOut, reads int
	var allocs, allocBytes uint64
	var selfUs []float64
	for i := range meas {
		r := &meas[i]
		if r.kind == kindUpdate && i < lastRead {
			// A swap drops the stores: count the families built since
			// the segment began before they go.
			built += st.poolStats().SkelFamilies - occ
			occ = 0
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		resp := serveHTTP(st.srv, r)
		outer := time.Since(start)
		runtime.ReadMemStats(&ms1)
		start = time.Now()
		twin.layer2(r, w.flipDoors)
		if r.kind != kindUpdate {
			selfUs = append(selfUs, float64((outer-time.Since(start)).Nanoseconds())/1e3)
		}
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		if resp.Code != http.StatusOK {
			return nil, fmt.Errorf("single-client request %d: HTTP %d: %s", i, resp.Code, truncate(resp.Body.Bytes()))
		}
		if i == lastRead {
			sEnd = st.poolStats()
		}
		sp.bodies[i] = resp.Body.Bytes()
		if r.kind == kindUpdate {
			continue
		}
		reads++
		bytesOut += resp.Body.Len()
		hits, err := wireHits(r, resp.Body.Bytes())
		if err != nil {
			return nil, err
		}
		sp.hits[len(w.warm)+i] = hits
	}
	s1 := sEnd
	built += s1.SkelFamilies - occ + s1.SkelEvictions - s0.SkelEvictions
	// Compositions per family count from the stack's start: a hot set's
	// families are built in the warm-up and composed from afterwards.
	builtAll := built + s0.SkelFamilies + s0.SkelEvictions
	q := s1.Queries - s0.Queries
	m := sp.metrics
	m["server.self_us"] = metric{Value: median(selfUs), Unit: "us"}
	m["server.response_bytes"] = metric{Value: float64(bytesOut) / float64(max(1, reads)), Unit: "bytes"}
	m["server.allocs_per_request"] = metric{Value: float64(allocs) / float64(len(meas)), Unit: "allocs"}
	m["server.alloc_bytes_per_request"] = metric{Value: float64(allocBytes) / float64(len(meas)), Unit: "bytes"}
	m["service.exact_hit_ratio"] = metric{Value: ratio(s1.CacheHits-s0.CacheHits, q), Unit: "ratio"}
	m["service.window_hit_ratio"] = metric{Value: ratio(s1.WindowHits-s0.WindowHits, q), Unit: "ratio"}
	m["service.skeleton_hit_ratio"] = metric{Value: ratio(s1.SkeletonHits-s0.SkeletonHits, q), Unit: "ratio"}
	m["service.dedup_ratio"] = metric{Value: ratio(s1.Deduped-s0.Deduped, q), Unit: "ratio"}
	m["service.searches_per_query"] = metric{Value: ratio(s1.EngineSearches-s0.EngineSearches, q), Unit: "searches"}
	m["service.families_per_query"] = metric{Value: ratio(built, q), Unit: "families"}
	m["service.compositions_per_family"] = metric{Value: ratio(s1.SkeletonHits, builtAll), Unit: "compositions"}
	m["tcache.windows"] = metric{Value: float64(s1.Windows), Unit: "count"}
	m["tcache.families"] = metric{Value: float64(s1.SkelFamilies), Unit: "count"}
	m["tcache.evictions"] = metric{Value: float64(s1.WindowEvictions - s0.WindowEvictions + s1.SkelEvictions - s0.SkelEvictions), Unit: "count"}
	return sp, nil
}

// wireTimes times the server's JSON work on the exported wire types:
// decoding each request body as the server does and encoding the
// document of its response.
func wireTimes(meas []request, bodies [][]byte, m map[string]metric) {
	var dec, enc []float64
	for i := range meas {
		r := &meas[i]
		var req, resp any
		switch r.kind {
		case kindRoute:
			req, resp = &server.RouteRequest{}, &server.RouteResponse{}
		case kindBatch:
			req, resp = &server.BatchRequest{}, &server.BatchResponse{}
		default:
			req, resp = &server.SchedulesRequest{}, &server.SchedulesResponse{}
		}
		start := time.Now()
		d := json.NewDecoder(bytes.NewReader(r.body))
		d.DisallowUnknownFields()
		_ = d.Decode(req)
		dec = append(dec, float64(time.Since(start).Nanoseconds())/1e3)
		if err := json.Unmarshal(bodies[i], resp); err != nil {
			continue
		}
		start = time.Now()
		_ = json.NewEncoder(io.Discard).Encode(resp)
		enc = append(enc, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["server.decode_us"] = metric{Value: mean(dec), Unit: "us"}
	m["server.render_us"] = metric{Value: mean(enc), Unit: "us"}
}

// wireHits reads each answer's provenance from a response body.
func wireHits(r *request, body []byte) ([]string, error) {
	var docs []server.RouteResponse
	if r.kind == kindBatch {
		var b server.BatchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		docs = b.Results
	} else {
		var d server.RouteResponse
		if err := json.Unmarshal(body, &d); err != nil {
			return nil, err
		}
		docs = []server.RouteResponse{d}
	}
	hits := make([]string, len(docs))
	for i, d := range docs {
		hits[i] = d.Hit
		if d.Shared {
			hits[i] = "dedup"
		}
	}
	return hits, nil
}

// coreResult is the core pass's output.
type coreResult struct {
	metrics map[string]metric
	// childUs is, per measured query (request, entry), the core time its
	// served outcome accounts for: search and family build for a miss,
	// composition for a skeleton hit, rebase for a window hit.
	childUs map[[2]int]float64
}

// famKey addresses a skeleton family the way a pool stores it.
type famKey struct {
	method   core.Method
	src, tgt model.PartitionID
	slot     int
}

// corePass replays the warm-up and measured queries single-threaded
// against fresh engines and times the core, model, dmat, temporal and
// itgraph entry points each outcome uses, with allocation and effort
// counts that repeat exactly for a seed. Spans of warm-up requests get
// negative request indexes; only measured requests enter childUs.
func corePass(w *workload, all []request, hits [][]string, nWarm int, rec *recorder) *coreResult {
	res := &coreResult{metrics: map[string]metric{}, childUs: map[[2]int]float64{}}
	m := res.metrics
	v0, _ := indoorpath.PresetVenue(venueID)
	g := [2]*indoorpath.Graph{}
	g[0], _ = indoorpath.NewGraph(v0)
	v1, _ := v0.WithSchedules(scheduleUpdate(v0, w.flipDoors, true))
	g[1], _ = indoorpath.NewGraph(v1)
	engines := map[[2]int]*core.Engine{}
	engine := func(state int, method core.Method) *core.Engine {
		k := [2]int{state, int(method)}
		if engines[k] == nil {
			engines[k] = core.NewEngine(g[state], core.Options{Method: method})
		}
		return engines[k]
	}
	fams := map[famKey]*core.SkeletonFamily{}
	paths := map[[2]indoorpath.Point]foundPath{}
	var ms0, ms1 runtime.MemStats
	searchUs := map[core.Method][]float64{}
	var allocs []float64
	var pops, relax, tv, searches float64
	var buildUs, buildAllocs, composeUs []float64
	var refusals float64
	var rebaseUs []float64
	var foundPaths []foundPath
	state := 0
	for ai := range all {
		r := &all[ai]
		i := ai - nWarm
		child := func(s span) {
			if i >= 0 {
				res.childUs[[2]int{s.Req, s.Entry}] += s.us()
			}
		}
		if r.kind == kindUpdate {
			state = (state + 1) % 2
			fams = map[famKey]*core.SkeletonFamily{}
			paths = map[[2]indoorpath.Point]foundPath{}
			continue
		}
		e := engine(state, r.method)
		for j, q := range r.queries {
			hit := hits[ai][j]
			sp, ok1 := g[state].Venue().Locate(q.Source)
			tpart, ok2 := g[state].Venue().Locate(q.Target)
			if !ok1 || !ok2 {
				continue
			}
			slot := core.SkeletonStaticSlot
			if r.method != core.MethodStatic {
				slot = g[state].Checkpoints().SlotOf(q.At.Mod())
			}
			fk := famKey{r.method, sp, tpart, slot}
			if hit == "miss" {
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				path, stats, err := e.Route(q)
				end := time.Now()
				runtime.ReadMemStats(&ms1)
				s := rec.add(i, j, "core.search", "service", start, end)
				child(s)
				searchUs[r.method] = append(searchUs[r.method], s.us())
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
				pops += float64(stats.Pops)
				relax += float64(stats.Relaxations)
				tv += float64(stats.Checker.Checks)
				searches++
				if err == nil && path != nil {
					paths[[2]indoorpath.Point{q.Source, q.Target}] = foundPath{q, path, e}
					foundPaths = append(foundPaths, foundPath{q, path, e})
					if fams[fk] == nil && sp != tpart {
						runtime.ReadMemStats(&ms0)
						start := time.Now()
						fam := e.BuildSkeletonFamily(sp, tpart, q.At)
						end := time.Now()
						runtime.ReadMemStats(&ms1)
						s := rec.add(i, j, "core.skeleton_build", "service", start, end)
						child(s)
						buildUs = append(buildUs, s.us())
						buildAllocs = append(buildAllocs, float64(ms1.Mallocs-ms0.Mallocs))
						fams[fk] = fam
					}
				}
			}
			if fam := fams[fk]; fam != nil && hit != "dedup" {
				start := time.Now()
				_, ok := core.ComposeSkeletonPath(g[state], q.Source, q.Target, q.At, q.Speed, fam)
				end := time.Now()
				s := rec.add(i, j, "core.compose", "service", start, end)
				if hit == "skeleton" {
					child(s)
				}
				composeUs = append(composeUs, s.us())
				if !ok {
					refusals++
				}
			}
			if f, ok := paths[[2]indoorpath.Point{q.Source, q.Target}]; ok && hit == "window" {
				t := timeRebase(f.e, f.path, q)
				child(rec.add(i, j, "core.rebase", "service", t.start, t.end))
				rebaseUs = append(rebaseUs, t.us)
			}
		}
	}
	for _, method := range []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic} {
		m["core.search_us."+methodName(method)] = meanOrNA(searchUs[method], "us")
	}
	// The median, not the mean: Go maps seed their hashes per map, so
	// when an engine's maps grow can move one allocation between
	// searches from run to run; a typical search's count does not move.
	m["core.allocs_per_search"] = metric{Value: median(allocs), Unit: "allocs"}
	m["core.pops_per_search"] = metric{Value: pops / max(1, searches), Unit: "pops"}
	m["core.relaxations_per_search"] = metric{Value: relax / max(1, searches), Unit: "relaxations"}
	m["core.tv_checks_per_search"] = metric{Value: tv / max(1, searches), Unit: "checks"}
	m["core.skeleton_build_us"] = meanOrNA(buildUs, "us")
	m["core.skeleton_build_allocs"] = meanOrNA(buildAllocs, "allocs")
	m["core.compose_us"] = meanOrNA(composeUs, "us")
	m["core.compose_refusal_ratio"] = notApplicable("ratio")
	if len(composeUs) > 0 {
		m["core.compose_refusal_ratio"] = metric{Value: refusals / float64(len(composeUs)), Unit: "ratio"}
	}
	m["core.rebase_us"] = meanOrNA(rebaseUs, "us")

	planBatches(all[nWarm:], g[0], engine, rec, m)
	lowerLayers(all[nWarm:], foundPaths, g[0], m)
	return res
}

// rebaseTiming is one timed window rebase.
type rebaseTiming struct {
	start, end time.Time
	us         float64
}

// timeRebase times what a window hit costs in core: the path's
// cumulative leg distances for the query, then its arrivals.
func timeRebase(e *core.Engine, path *core.Path, q core.Query) rebaseTiming {
	start := time.Now()
	dists := e.PathDistances(path, q)
	speed := q.Speed
	if speed <= 0 {
		speed = core.WalkingSpeedMPS
	}
	arrivals := make([]temporal.TimeOfDay, len(dists))
	for k, d := range dists {
		arrivals[k] = q.At.Mod() + temporal.TimeOfDay(d/speed)
	}
	end := time.Now()
	return rebaseTiming{start, end, float64(end.Sub(start).Nanoseconds()) / 1e3}
}

// planBatches times batchplan.New on the workload's batches (for solo
// workloads, on consecutive same-method pairs of queries: what a
// coalescer flush holds with two clients) and Engine.RouteMany /
// RouteManyTo on each shared group. A workload whose plans share
// nothing runs each query as a one-target RouteMany.
func planBatches(meas []request, g *indoorpath.Graph, engine func(int, core.Method) *core.Engine, rec *recorder, m map[string]metric) {
	v := g.Venue()
	type batch struct {
		req    int
		method core.Method
		qs     []core.Query
	}
	var batches []batch
	var pending [3][]core.Query
	for i := range meas {
		r := &meas[i]
		switch r.kind {
		case kindBatch:
			batches = append(batches, batch{i, r.method, r.queries})
		case kindRoute:
			pending[r.method] = append(pending[r.method], r.queries[0])
			if len(pending[r.method]) == 2 {
				batches = append(batches, batch{i, r.method, pending[r.method]})
				pending[r.method] = nil
			}
		}
	}
	var planUs []float64
	var groups, solo, items, runs, answers float64
	var manyUs []float64
	for _, b := range batches {
		seen := map[core.Query]bool{}
		var its []batchplan.Item
		for _, q := range b.qs {
			if seen[q] {
				continue
			}
			seen[q] = true
			sp, ok1 := v.Locate(q.Source)
			tp, ok2 := v.Locate(q.Target)
			if !ok1 || !ok2 {
				continue
			}
			speed := q.Speed
			if speed <= 0 {
				speed = core.WalkingSpeedMPS
			}
			its = append(its, batchplan.Item{Index: len(its), Src: q.Source, Tgt: q.Target, At: q.At.Mod(), Speed: speed,
				SrcPart: sp, TgtPart: tp, SrcPrivate: v.Partition(sp).Kind.IsPrivate(), TgtPrivate: v.Partition(tp).Kind.IsPrivate()})
		}
		start := time.Now()
		plan := batchplan.NewOpts(its, b.method, batchplan.Options{PartitionGroups: true})
		planUs = append(planUs, float64(time.Since(start).Nanoseconds())/1e3)
		groups += float64(len(plan.Groups))
		items += float64(len(its))
		e := engine(0, b.method)
		for _, grp := range plan.Groups {
			if grp.Kind == batchplan.Solo {
				solo += float64(len(grp.Members))
			}
			if grp.Kind != batchplan.SharedSource && grp.Kind != batchplan.SharedTarget {
				continue
			}
			start := time.Now()
			if grp.Kind == batchplan.SharedSource {
				tgts := make([]indoorpath.Point, len(grp.Members))
				for k, mi := range grp.Members {
					tgts[k] = its[mi].Tgt
				}
				e.RouteMany(grp.Source, tgts, grp.At, grp.Speed)
			} else {
				srcs := make([]indoorpath.Point, len(grp.Members))
				for k, mi := range grp.Members {
					srcs[k] = its[mi].Src
				}
				e.RouteManyTo(srcs, grp.Target, grp.At, grp.Speed)
			}
			s := rec.add(b.req, -1, "core.route_many", "batch", start, time.Now())
			manyUs = append(manyUs, s.us())
			runs++
			answers += float64(len(grp.Members))
		}
	}
	m["batchplan.plan_us"] = metric{Value: mean(planUs), Unit: "us"}
	m["batchplan.groups_per_batch"] = metric{Value: groups / max(1, float64(len(batches))), Unit: "groups"}
	m["batchplan.solo_ratio"] = metric{Value: solo / max(1, items), Unit: "ratio"}
	m["core.route_many_us"] = meanOrNA(manyUs, "us")
	m["core.answers_per_run"] = notApplicable("answers")
	if runs > 0 {
		m["core.answers_per_run"] = metric{Value: answers / runs, Unit: "answers"}
	}
}

// foundPath is a found answer of the core pass with the engine that
// produced it.
type foundPath struct {
	q    core.Query
	path *core.Path
	e    *core.Engine
}

// lowerLayers times the model, dmat, temporal and itgraph entry points
// on the workload's endpoints and found paths, and the builds behind
// set-up.
func lowerLayers(meas []request, found []foundPath, g *indoorpath.Graph, m map[string]metric) {
	v := g.Venue()
	var pts []indoorpath.Point
	for i := range meas {
		for _, q := range meas[i].queries {
			pts = append(pts, q.Source, q.Target)
		}
	}
	m["model.locate_ns"] = metric{Value: perCall(len(pts), func() {
		for _, p := range pts {
			v.Locate(p)
		}
	}), Unit: "ns"}

	// The legs a search takes: point to first door, door to door inside
	// each partition, last door to point.
	type leg struct {
		part model.PartitionID
		a, b model.DoorID
		pt   indoorpath.Point
		end  bool // a point-to-door leg
	}
	type probe struct {
		d    model.DoorID
		t    temporal.TimeOfDay
		snap *itgraph.Snapshot
	}
	var legs []leg
	var probes []probe
	for _, f := range found {
		p := f.path
		n := len(p.Doors)
		if n == 0 {
			continue
		}
		legs = append(legs, leg{part: p.Partitions[0], b: p.Doors[0], pt: p.Source, end: true})
		for k := 1; k < n; k++ {
			legs = append(legs, leg{part: p.Partitions[k], a: p.Doors[k-1], b: p.Doors[k]})
		}
		legs = append(legs, leg{part: p.Partitions[n], b: p.Doors[n-1], pt: p.Target, end: true})
		for k, d := range p.Doors {
			t := p.Arrivals[k].Mod()
			probes = append(probes, probe{d, t, g.Snapshots().At(t)})
		}
	}
	dm := g.DM()
	m["dmat.leg_ns"] = metric{Value: perCall(len(legs), func() {
		for _, l := range legs {
			if l.end {
				dm.PointToDoor(l.part, l.pt, l.b)
			} else {
				dm.Dist(l.part, l.a, l.b)
			}
		}
	}), Unit: "ns"}
	m["temporal.ati_probe_ns"] = metric{Value: perCall(len(probes), func() {
		for _, p := range probes {
			v.Door(p.d).OpenAt(p.t)
		}
	}), Unit: "ns"}
	m["itgraph.snapshot_probe_ns"] = metric{Value: perCall(len(probes), func() {
		for _, p := range probes {
			p.snap.DoorOpen(p.d)
		}
	}), Unit: "ns"}
	m["model.build_ms"] = metric{Value: medianMs(5, nil, func() { _, _ = indoorpath.PresetVenue(venueID) }), Unit: "ms"}
	m["itgraph.build_ms"] = metric{Value: medianMs(5, nil, func() { _, _ = indoorpath.NewGraph(v) }), Unit: "ms"}
	var fresh *indoorpath.Graph
	m["itgraph.snapshots_ms"] = metric{Value: medianMs(5, func() { fresh, _ = indoorpath.NewGraph(v) }, func() { fresh.Snapshots().BuildAll() }), Unit: "ms"}
}

// perCall times fn over n items, repeating until at least minDur has
// passed, and returns nanoseconds per item.
func perCall(n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	const minDur = 5 * time.Millisecond
	reps := 0
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*n)
}

// medianMs times fn reps times and returns the median in milliseconds.
func medianMs(reps int, setup func(), fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		if setup != nil {
			setup()
		}
		runtime.GC()
		start := time.Now()
		fn()
		ts[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(ts)
}
