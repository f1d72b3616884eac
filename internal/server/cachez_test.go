package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorpath/internal/service"
)

// newTinyCacheTestServer boots a hospital-only registry whose exact
// result cache holds four entries, so eviction pressure is cheap to
// force.
func newTinyCacheTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := NewRegistry(service.Options{CacheCapacity: 4})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCachezAfterTraffic walks one query family through all three
// provenance outcomes on a window-enabled server and checks the
// /cachez body tells the same story: exact-cache and window-store
// occupancy within capacity, a populated coverage map, and a top-pair
// row whose tallies match the driven traffic exactly.
func TestCachezAfterTraffic(t *testing.T) {
	ts, _ := newWindowTestServer(t, Options{})
	routeAt(t, ts.URL, "11:00", false) // miss: engine search
	routeAt(t, ts.URL, "11:20", false) // same visiting-hours slot: window hit
	routeAt(t, ts.URL, "11:00", false) // exact repeat

	var cz CachezResponse
	if resp := getJSON(t, ts.URL+"/cachez", &cz); resp.StatusCode != http.StatusOK {
		t.Fatalf("cachez status = %d", resp.StatusCode)
	}
	methods, ok := cz.Venues["hospital"]
	if !ok {
		t.Fatalf("cachez venues = %v, want hospital", cz.Venues)
	}
	for _, m := range []string{"syn", "asyn", "static"} {
		if _, ok := methods[m]; !ok {
			t.Fatalf("cachez hospital missing method %q", m)
		}
	}

	doc := methods["asyn"]
	if doc.Queries != 3 {
		t.Fatalf("queries = %d, want 3", doc.Queries)
	}
	if doc.Exact.Entries < 1 || doc.Exact.Capacity <= 0 || doc.Exact.Entries > doc.Exact.Capacity {
		t.Fatalf("exact occupancy = %+v", doc.Exact)
	}
	if doc.Window.Windows < 1 || doc.Window.Capacity <= 0 || doc.Window.Windows > doc.Window.Capacity {
		t.Fatalf("window occupancy = %+v", doc.Window)
	}
	if doc.Window.PairsTotal < 1 || len(doc.Window.Pairs) != doc.Window.PairsTotal {
		t.Fatalf("window coverage = %d pairs listed, pairs_total = %d", len(doc.Window.Pairs), doc.Window.PairsTotal)
	}
	for _, p := range doc.Window.Pairs {
		if p.Windows < p.Families || p.Families < 1 {
			t.Fatalf("coverage row %+v: want windows >= families >= 1", p)
		}
		if p.DayCoverage <= 0 || p.DayCoverage > 1 {
			t.Fatalf("coverage row %+v: day_coverage outside (0, 1]", p)
		}
	}

	if doc.PairCapacity <= 0 {
		t.Fatalf("pair_capacity = %d", doc.PairCapacity)
	}
	if len(doc.TopPairs) != 1 {
		t.Fatalf("top_pairs = %+v, want exactly the one driven pair", doc.TopPairs)
	}
	top := doc.TopPairs[0]
	if top.Src == "" || top.Tgt == "" {
		t.Fatalf("top pair endpoints unresolved: %+v", top)
	}
	if top.Queries != 3 || top.ExactHits != 1 || top.WindowHits != 1 ||
		top.EngineSearches != 1 || top.Deduped != 0 || top.ErrBound != 0 {
		t.Fatalf("top pair tallies = %+v, want 3 queries / 1 exact / 1 window / 1 search", top)
	}
	if top.Effort <= 0 {
		t.Fatalf("top pair effort = %d, want > 0 (one engine run)", top.Effort)
	}
	if top.ExactHitRate != 1.0/3 || top.WindowHitRate != 1.0/3 {
		t.Fatalf("top pair hit rates = %v/%v, want 1/3 each", top.ExactHitRate, top.WindowHitRate)
	}
	if top.DayCoverage <= 0 || top.DayCoverage > 1 {
		t.Fatalf("top pair day_coverage = %v, want (0, 1]", top.DayCoverage)
	}

	// One engine run: every effort histogram holds exactly one
	// observation, and the count-valued sums carry raw units.
	eff := doc.EngineEffort
	if eff.Pops.Count != 1 || eff.Settled.Count != 1 || eff.Relaxations.Count != 1 || eff.TVChecks.Count != 1 {
		t.Fatalf("effort counts = %d/%d/%d/%d, want 1 each",
			eff.Pops.Count, eff.Settled.Count, eff.Relaxations.Count, eff.TVChecks.Count)
	}
	if eff.Pops.SumSeconds < 1 || eff.Settled.SumSeconds < 1 {
		t.Fatalf("effort sums = %v pops / %v settled, want >= 1 raw units", eff.Pops.SumSeconds, eff.Settled.SumSeconds)
	}
	if int64(eff.Pops.SumSeconds) != top.Effort {
		t.Fatalf("histogram pops sum %v != top-pair effort %d for a single search", eff.Pops.SumSeconds, top.Effort)
	}

	// The effort families surface on /metricsz from the same counters.
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	body := string(raw)
	labels := `{venue="hospital",method="asyn"}`
	if got := metricValue(t, body, "indoorpath_engine_effort_pops_count"+labels); got != 1 {
		t.Fatalf("effort pops metric count = %d, want 1", got)
	}
	if got := metricValue(t, body, "indoorpath_cache_entries"+labels); got != doc.Exact.Entries {
		t.Fatalf("cache entries metric = %d, want %d", got, doc.Exact.Entries)
	}
	if got := metricValue(t, body, "indoorpath_window_entries"+labels); got < 1 {
		t.Fatalf("window entries metric = %d, want >= 1", got)
	}
}

// TestCacheEvictionCountersSurface forces exact-cache eviction with a
// tiny capacity and checks the pressure shows up on /cachez and
// /metricsz.
func TestCacheEvictionCountersSurface(t *testing.T) {
	ts := newTinyCacheTestServer(t)
	// Nine distinct departures through a 4-entry cache: at least five
	// insertions must shed an entry.
	for i := 0; i < 9; i++ {
		routeAt(t, ts.URL, fmt.Sprintf("10:%02d", i*5), false)
	}
	var cz CachezResponse
	getJSON(t, ts.URL+"/cachez", &cz)
	doc := cz.Venues["hospital"]["asyn"]
	if doc.Exact.Capacity != 4 {
		t.Fatalf("exact capacity = %d, want 4", doc.Exact.Capacity)
	}
	if doc.Exact.Entries > doc.Exact.Capacity {
		t.Fatalf("exact occupancy %d > capacity %d", doc.Exact.Entries, doc.Exact.Capacity)
	}
	if doc.Exact.Evictions < 5 {
		t.Fatalf("exact evictions = %d, want >= 5 after 9 inserts into 4 slots", doc.Exact.Evictions)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	got := metricValue(t, string(raw), `indoorpath_cache_evictions_total{venue="hospital",method="asyn"}`)
	if got != doc.Exact.Evictions {
		t.Fatalf("evictions metric = %d, cachez = %d", got, doc.Exact.Evictions)
	}
}

// TestScopeFilters drives mixed traffic and checks the shared
// ?venue=/?method= filters narrow /statsz and /cachez bodies to
// exactly the requested scope.
func TestScopeFilters(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	routeAt(t, ts.URL, "10:30", false)

	var st StatsResponse
	getJSON(t, ts.URL+"/statsz?venue=hospital&method=asyn", &st)
	if len(st.Venues) != 1 {
		t.Fatalf("filtered statsz venues = %v, want hospital only", st.Venues)
	}
	doc, ok := st.Venues["hospital"]
	if !ok {
		t.Fatalf("filtered statsz missing hospital: %v", st.Venues)
	}
	if len(doc.Methods) != 1 || len(doc.EngineEffort) != 1 {
		t.Fatalf("filtered statsz methods = %v effort = %v, want asyn only", doc.Methods, doc.EngineEffort)
	}
	if doc.Methods["asyn"].Queries != 1 {
		t.Fatalf("filtered statsz asyn queries = %d, want 1", doc.Methods["asyn"].Queries)
	}

	var office StatsResponse
	getJSON(t, ts.URL+"/statsz?venue=office", &office)
	if len(office.Venues) != 1 {
		t.Fatalf("filtered statsz venues = %v, want office only", office.Venues)
	}
	if doc, ok := office.Venues["office"]; !ok || len(doc.Methods) != 3 {
		t.Fatalf("filtered statsz office methods = %v, want all three", doc.Methods)
	}

	var cz CachezResponse
	getJSON(t, ts.URL+"/cachez?method=syn", &cz)
	if len(cz.Venues) != 2 {
		t.Fatalf("cachez venues = %v, want both venues", cz.Venues)
	}
	for id, methods := range cz.Venues {
		if len(methods) != 1 {
			t.Fatalf("filtered cachez %s methods = %v, want syn only", id, methods)
		}
		if _, ok := methods["syn"]; !ok {
			t.Fatalf("filtered cachez %s missing syn: %v", id, methods)
		}
	}
}

// TestScopeFilterValidation checks the strict-400 contract shared by
// /statsz and /cachez: unknown parameter names, unregistered
// venues and unknown methods are rejected rather than silently
// matching everything (or nothing).
func TestScopeFilterValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, ep := range []string{"/statsz", "/cachez"} {
		for _, query := range []string{
			"?bogus=1", "?venues=hospital", "?venue=atlantis", "?method=dijkstra", "?outcome=ok",
		} {
			resp, raw := doJSON(t, http.MethodGet, ts.URL+ep+query, nil)
			if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
				t.Errorf("%s%s status = %d body = %s, want 400 bad_request", ep, query, resp.StatusCode, raw)
			}
		}
		// Valid scopes still answer 200.
		if resp, raw := doJSON(t, http.MethodGet, ts.URL+ep+"?venue=hospital&method=static", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("%s?venue=hospital&method=static status = %d body = %s", ep, resp.StatusCode, raw)
		}
	}
}
