package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorpath/internal/obs"
	"indoorpath/internal/service"
)

// routeAt posts one hospital route (ER centre to ward centre) at the
// given departure time and returns the decoded response.
func routeAt(t testing.TB, base, at string, trace bool) RouteResponse {
	t.Helper()
	body := map[string]any{"from": erCentre, "to": wardCentre, "at": at}
	if trace {
		body["trace"] = true
	}
	resp, raw := postJSON(t, base+"/v1/venues/hospital/route", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route status = %d: %s", resp.StatusCode, raw)
	}
	var out RouteResponse
	decodeInto(t, raw, &out)
	return out
}

// TestTracezAfterTraffic checks that served requests land in /tracez
// with the expected stage spans and that span durations are consistent
// with the recorded request latency.
func TestTracezAfterTraffic(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)

	var tz TracezResponse
	resp := getJSON(t, ts.URL+"/tracez", &tz)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tracez status = %d", resp.StatusCode)
	}
	if tz.Count != 1 || len(tz.Traces) != 1 {
		t.Fatalf("tracez count = %d, traces = %d, want 1", tz.Count, len(tz.Traces))
	}
	tr := tz.Traces[0]
	if tr.Venue != "hospital" || tr.Method != "asyn" || tr.Outcome != obs.OutcomeOK {
		t.Fatalf("trace labels = %s/%s/%s", tr.Venue, tr.Method, tr.Outcome)
	}
	if !tr.Slow {
		t.Fatal("first trace not in the slow population")
	}
	stages := map[string]int{}
	var sumMs float64
	for _, sp := range tr.Spans {
		stages[sp.Stage]++
		sumMs += sp.DurationMs
		if sp.StartMs < 0 || sp.DurationMs < 0 {
			t.Fatalf("negative span offsets: %+v", sp)
		}
	}
	for _, want := range []string{"decode", "probe", "engine", "store", "render"} {
		if stages[want] != 1 {
			t.Fatalf("stage %q spans = %d, want 1 (%v)", want, stages[want], stages)
		}
	}
	// The solo-route stages run back to back inside the request, so
	// their durations must account for (and never exceed) the request
	// latency, up to clock-reading slack.
	if sumMs <= 0 {
		t.Fatal("span durations sum to zero")
	}
	if sumMs > tr.DurationMs+1.0 {
		t.Fatalf("span durations sum to %.3fms > request latency %.3fms", sumMs, tr.DurationMs)
	}
}

// TestInlineTrace checks the per-request "trace": true opt-in: the
// trace rides inline in the response (without the render span, which
// has not happened yet at encode time) and is absent otherwise.
func TestInlineTrace(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	if out := routeAt(t, ts.URL, "10:30", false); out.Trace != nil {
		t.Fatal("trace present without the opt-in")
	}
	out := routeAt(t, ts.URL, "10:40", true)
	if out.Trace == nil {
		t.Fatal("no inline trace with \"trace\": true")
	}
	stages := map[string]int{}
	for _, sp := range out.Trace.Spans {
		stages[sp.Stage]++
	}
	if stages["decode"] != 1 || stages["probe"] != 1 {
		t.Fatalf("inline trace stages = %v", stages)
	}
	if stages["render"] != 0 {
		t.Fatal("inline trace contains its own render span")
	}
	if out.Trace.DurationMs <= 0 {
		t.Fatalf("inline trace duration = %v", out.Trace.DurationMs)
	}
}

// TestBatchTraceRejected checks that per-query inline traces are
// rejected inside a batch, like per-query methods.
func TestBatchTraceRejected(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route:batch", map[string]any{
		"queries": []map[string]any{
			{"from": erCentre, "to": wardCentre, "at": "10:30", "trace": true},
		},
	})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
		t.Fatalf("status = %d body = %s", resp.StatusCode, raw)
	}
}

// TestTracezRingBounds drives more requests than the ring holds and
// checks retention stays bounded with both populations flagged.
func TestTracezRingBounds(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for i := 0; i < 100; i++ {
		routeAt(t, ts.URL, fmt.Sprintf("10:00:%02d", i%60), false)
	}
	var tz TracezResponse
	getJSON(t, ts.URL+"/tracez", &tz)
	if tz.Count > 64 {
		t.Fatalf("tracez retained %d traces, ring capacity is 64", tz.Count)
	}
	if tz.Count == 0 {
		t.Fatal("tracez empty after 100 requests")
	}
	for _, tr := range tz.Traces {
		if tr.Slow == tr.Sampled {
			t.Fatalf("trace in %v populations (slow=%v sampled=%v)", map[bool]string{true: "both", false: "neither"}[tr.Slow], tr.Slow, tr.Sampled)
		}
	}
}

// TestTracezJSONFieldSet pins the /tracez wire format: the field set
// of trace and span objects is closed, so dashboards parsing it don't
// silently break when fields move.
func TestTracezJSONFieldSet(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)

	var generic struct {
		Count  int              `json:"count"`
		Traces []map[string]any `json:"traces"`
	}
	getJSON(t, ts.URL+"/tracez", &generic)
	if len(generic.Traces) == 0 {
		t.Fatal("no traces")
	}
	traceKeys := map[string]bool{
		"venue": true, "method": true, "outcome": true, "hit": true,
		"coalesced": true, "shared_run": true, "start": true,
		"duration_ms": true, "slow": true, "sampled": true,
		"dropped_spans": true, "spans": true,
	}
	spanKeys := map[string]bool{"stage": true, "start_ms": true, "duration_ms": true, "attrs": true}
	for _, tr := range generic.Traces {
		for k := range tr {
			if !traceKeys[k] {
				t.Fatalf("unexpected trace field %q", k)
			}
		}
		for _, req := range []string{"venue", "method", "outcome", "start", "duration_ms", "spans"} {
			if _, ok := tr[req]; !ok {
				t.Fatalf("trace missing required field %q: %v", req, tr)
			}
		}
		for _, sp := range tr["spans"].([]any) {
			for k := range sp.(map[string]any) {
				if !spanKeys[k] {
					t.Fatalf("unexpected span field %q", k)
				}
			}
		}
	}
}

// metricValue extracts one un-suffixed series value from a Prometheus
// text body, e.g. metricValue(body, `indoorpath_pool_queries_total{venue="hospital",method="asyn"}`).
func metricValue(t testing.TB, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// checkPartition asserts the serving-partition invariant on one set of
// pool counters: every query is a cache hit, a window hit, a skeleton
// composition, a batch dedup or a miss, and engine runs never exceed
// misses. Guaranteed even in torn snapshots by the pool's counter read
// order. Reports whether both comparisons held.
func checkPartition(t testing.TB, where string, queries, cacheHits, windowHits, skeletonHits, deduped, engineSearches int64) bool {
	t.Helper()
	misses := queries - cacheHits - windowHits - skeletonHits - deduped
	if misses < 0 {
		t.Errorf("%s: misses = %d - %d - %d - %d - %d = %d < 0",
			where, queries, cacheHits, windowHits, skeletonHits, deduped, misses)
		return false
	}
	if engineSearches > misses {
		t.Errorf("%s: engine_searches %d > misses %d", where, engineSearches, misses)
		return false
	}
	return true
}

// checkStats is checkPartition over one pool's service.Stats.
func checkStats(t testing.TB, where string, st *service.Stats) bool {
	t.Helper()
	return checkPartition(t, where, st.Queries, st.CacheHits, st.WindowHits, st.SkeletonHits, st.Deduped, st.EngineSearches)
}

// checkStatszBody asserts every pooled method doc's invariants in one
// /statsz body: the partition, occupancy within capacity for the
// exact, window and skeleton stores, and — because the top-K table is
// read before the pool counters — every pair tally bounded by its
// pair's queries and the pairs' queries bounded by the pool's.
// Reports whether all held.
func checkStatszBody(t testing.TB, st *StatsResponse) bool {
	t.Helper()
	for id, venue := range st.Venues {
		for m, doc := range venue.Methods {
			if m == methodWaiting || m == methodProfile {
				continue // no pool
			}
			where := fmt.Sprintf("statsz %s/%s", id, m)
			if !checkStats(t, where, doc.Stats) {
				return false
			}
			for _, occ := range []struct {
				store         string
				held, capable int64
			}{
				{"exact", doc.CacheEntries, doc.CacheCapacity},
				{"window", doc.Windows, doc.WindowCapacity},
				{"skeleton", doc.SkelFamilies, doc.SkelCapacity},
			} {
				if occ.held > occ.capable {
					t.Errorf("%s: %s occupancy %d > capacity %d", where, occ.store, occ.held, occ.capable)
					return false
				}
			}
			var pairQueries int64
			for _, p := range doc.TopPairs {
				pairQueries += p.Queries
				if p.ExactHits+p.WindowHits+p.SkeletonHits+p.Deduped > p.Queries {
					t.Errorf("%s: pair %s->%s tallies exceed its queries: %+v", where, p.Src, p.Tgt, p)
					return false
				}
			}
			if pairQueries > doc.Queries {
				t.Errorf("%s: top-K pair queries sum %d > pool queries %d", where, pairQueries, doc.Queries)
				return false
			}
		}
	}
	return true
}

// TestScrapeConsistencyHammer hammers the server with concurrent
// route traffic while scraping /statsz, /metricsz and /tracez, and
// asserts the partition invariant in every scraped body, and the
// occupancy and top-K bounds in every /statsz body — i.e. a scrape
// landing mid-request never shows torn counters that violate them.
func TestScrapeConsistencyHammer(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	const writers, perWriter = 6, 25

	var writeWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				// Mix repeats (cache hits) with distinct departures
				// (misses / window hits).
				routeAt(t, ts.URL, fmt.Sprintf("10:%02d", (w*7+i)%30), false)
			}
		}(w)
	}
	for sc := 0; sc < 2; sc++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var st StatsResponse
				getJSON(t, ts.URL+"/statsz", &st)
				if !checkStatszBody(t, &st) {
					return
				}
				resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("metricsz status = %d", resp.StatusCode)
					return
				}
				body := string(raw)
				labels := `{venue="hospital",method="asyn"}`
				checkPartition(t, "metricsz hospital/asyn",
					metricValue(t, body, "indoorpath_pool_queries_total"+labels),
					metricValue(t, body, "indoorpath_pool_exact_hits_total"+labels),
					metricValue(t, body, "indoorpath_pool_window_hits_total"+labels),
					metricValue(t, body, "indoorpath_pool_skeleton_hits_total"+labels),
					metricValue(t, body, "indoorpath_pool_deduped_total"+labels),
					metricValue(t, body, "indoorpath_pool_engine_searches_total"+labels))
				var tz TracezResponse
				getJSON(t, ts.URL+"/tracez", &tz)
				if tz.Count > 64 {
					t.Errorf("tracez retained %d traces", tz.Count)
					return
				}
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	scrapeWG.Wait()

	// Final quiescent check: both histogram families present with a
	// matching total request count.
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	body := string(raw)
	reqCount := metricValue(t, body, `indoorpath_request_seconds_count{venue="hospital",method="asyn",outcome="ok"}`)
	if want := int64(writers * perWriter); reqCount != want {
		t.Fatalf("request histogram count = %d, want %d", reqCount, want)
	}
	if !strings.Contains(body, `indoorpath_stage_seconds_bucket{stage="engine",le="+Inf"}`) {
		t.Fatal("stage histogram family missing from /metricsz")
	}
	if engines := metricValue(t, body, `indoorpath_stage_seconds_count{stage="engine"}`); engines == 0 {
		t.Fatal("engine stage histogram empty after traffic")
	}
}

// TestBuildz checks the build-provenance endpoint: the binary's go
// toolchain is always known, the start time is a parseable instant,
// and /healthz carries the same start time for restart detection.
func TestBuildz(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var bz BuildzResponse
	if resp := getJSON(t, ts.URL+"/buildz", &bz); resp.StatusCode != http.StatusOK {
		t.Fatalf("buildz status = %d", resp.StatusCode)
	}
	if bz.Build.GoVersion == "" {
		t.Fatal("buildz go_version empty")
	}
	start, err := time.Parse(time.RFC3339Nano, bz.StartTime)
	if err != nil {
		t.Fatalf("buildz start_time %q: %v", bz.StartTime, err)
	}
	if bz.UptimeSec < 0 {
		t.Fatalf("buildz uptime_sec = %v", bz.UptimeSec)
	}
	var hz HealthResponse
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.StartTime == "" || hz.Build == nil || hz.Build.GoVersion != bz.Build.GoVersion {
		t.Fatalf("healthz provenance = %+v, want start_time and build matching /buildz", hz)
	}
	if hzStart, err := time.Parse(time.RFC3339Nano, hz.StartTime); err != nil || !hzStart.Equal(start) {
		t.Fatalf("healthz start_time %q != buildz start_time %q", hz.StartTime, bz.StartTime)
	}
}

// TestTracezFilters drives known traffic and checks each filter
// narrows the listing: matching values keep every trace, non-matching
// values yield an empty (but well-formed) body.
func TestTracezFilters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		routeAt(t, ts.URL, fmt.Sprintf("10:3%d", i), false)
	}
	count := func(query string) int {
		t.Helper()
		var tz TracezResponse
		if resp := getJSON(t, ts.URL+"/tracez"+query, &tz); resp.StatusCode != http.StatusOK {
			t.Fatalf("tracez%s status = %d", query, resp.StatusCode)
		}
		if tz.Count != len(tz.Traces) {
			t.Fatalf("tracez%s count %d != len(traces) %d", query, tz.Count, len(tz.Traces))
		}
		return tz.Count
	}
	all := count("")
	if all != 3 {
		t.Fatalf("unfiltered tracez count = %d, want 3", all)
	}
	for query, want := range map[string]int{
		"?venue=hospital":                  all,
		"?venue=office":                    0,
		"?method=asyn":                     all,
		"?method=syn":                      0,
		"?outcome=ok":                      all,
		"?outcome=no_route":                0,
		"?min_ms=0":                        all,
		"?min_ms=3600000":                  0,
		"?venue=hospital&method=asyn":      all,
		"?venue=hospital&outcome=no_route": 0,
	} {
		if got := count(query); got != want {
			t.Errorf("tracez%s count = %d, want %d", query, got, want)
		}
	}
}

// TestTracezFilterValidation checks the strict-400 contract: unknown
// parameter names, malformed min_ms and unknown outcome labels are
// rejected rather than silently matching everything.
func TestTracezFilterValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, query := range []string{
		"?bogus=1", "?venues=hospital", "?min_ms=abc", "?min_ms=-1", "?min_ms=NaN", "?min_ms=Inf",
		"?outcome=fine",
	} {
		resp, raw := doJSON(t, http.MethodGet, ts.URL+"/tracez"+query, nil)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
			t.Errorf("tracez%s status = %d body = %s, want 400 bad_request", query, resp.StatusCode, raw)
		}
	}
}

// TestStatszAfterTraffic checks the cumulative counters end to end:
// known traffic (two misses, one exact repeat) shows up in /statsz
// with the partition invariant and the miss-reason tallies the
// provenance layer recorded. A windowed rate is the difference of two
// such scrapes.
func TestStatszAfterTraffic(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)
	routeAt(t, ts.URL, "10:45", false)
	routeAt(t, ts.URL, "10:30", false) // exact repeat

	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/statsz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status = %d", resp.StatusCode)
	}
	ms := st.Venues["hospital"].Methods["asyn"]
	checkStats(t, "statsz hospital/asyn", ms.Stats)
	if ms.Queries != 3 || ms.CacheHits != 1 || ms.EngineSearches != 2 {
		t.Fatalf("hospital/asyn = %+v, want 3 queries / 1 cache hit / 2 searches", ms)
	}
	if ms.Reasons.MissNoExactEntry != 2 {
		t.Fatalf("miss reasons = %+v, want miss_no_exact_entry: 2", ms.Reasons)
	}
	// Untouched pools still report, with all-zero counters.
	if quiet, ok := st.Venues["office"].Methods["static"]; !ok || quiet.Queries != 0 {
		t.Fatalf("quiet pool = %+v (present %v)", quiet, ok)
	}
}

// TestExplainProvenance checks the inline decision provenance: a cache
// miss explains why it missed, and a hit (which answered without an
// engine run) carries no explain field at all.
func TestExplainProvenance(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	miss := routeAt(t, ts.URL, "11:20", true)
	if miss.CacheHit || miss.Explain != "no_exact_entry" {
		t.Fatalf("miss explain = %q (hit=%v), want no_exact_entry", miss.Explain, miss.CacheHit)
	}
	hit := routeAt(t, ts.URL, "11:20", true)
	if !hit.CacheHit || hit.Explain != "" {
		t.Fatalf("hit explain = %q (hit=%v), want empty", hit.Explain, hit.CacheHit)
	}
	// The wire field must be absent on hits, not an empty string.
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route",
		map[string]any{"from": erCentre, "to": wardCentre, "at": "11:20"})
	if resp.StatusCode != http.StatusOK || strings.Contains(string(raw), `"explain"`) {
		t.Fatalf("hit body carries explain: %s", raw)
	}
}

// TestMetricszLoadAndReasonFamilies checks the /metricsz side of the
// decision-provenance layer: cumulative per-reason counters, rendered
// only for reasons that occurred.
func TestMetricszLoadAndReasonFamilies(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)
	routeAt(t, ts.URL, "10:30", false)

	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	body := string(raw)
	if v := metricValue(t, body, `indoorpath_reason_miss_total{venue="hospital",method="asyn",reason="no_exact_entry"}`); v != 1 {
		t.Errorf("miss reason counter = %d, want 1", v)
	}
	if strings.Contains(body, `indoorpath_reason_miss_total{venue="office"`) {
		t.Error("zero-count reason series rendered for idle venue")
	}
}
