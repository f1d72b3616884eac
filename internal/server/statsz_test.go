package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/service"
	"indoorpath/internal/tcache"
	"indoorpath/internal/temporal"
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

// TestStatszStoresAfterTraffic walks one query family through all
// three provenance outcomes on a window-enabled server and checks the
// /statsz method doc tells the same story: exact-cache and
// window-store occupancy within capacity, populated coverage rows, and
// a top-pair row whose tallies match the driven traffic exactly.
func TestStatszStoresAfterTraffic(t *testing.T) {
	ts, _ := newWindowTestServer(t, Options{})
	routeAt(t, ts.URL, "11:00", false) // miss: engine search
	routeAt(t, ts.URL, "11:20", false) // same visiting-hours slot: window hit
	routeAt(t, ts.URL, "11:00", false) // exact repeat

	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/statsz", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status = %d", resp.StatusCode)
	}
	venue, ok := st.Venues["hospital"]
	if !ok {
		t.Fatalf("statsz venues = %v, want hospital", st.Venues)
	}
	methods := venue.Methods
	for _, m := range []string{"syn", "asyn", "static"} {
		if _, ok := methods[m]; !ok {
			t.Fatalf("statsz hospital missing method %q", m)
		}
	}

	doc := methods["asyn"]
	if doc.Queries != 3 {
		t.Fatalf("queries = %d, want 3", doc.Queries)
	}
	if doc.CacheEntries < 1 || doc.CacheCapacity <= 0 || doc.CacheEntries > doc.CacheCapacity {
		t.Fatalf("exact occupancy = %d of %d", doc.CacheEntries, doc.CacheCapacity)
	}
	if doc.Windows < 1 || doc.WindowCapacity <= 0 || doc.Windows > doc.WindowCapacity {
		t.Fatalf("window occupancy = %d of %d", doc.Windows, doc.WindowCapacity)
	}
	if doc.WindowPairsTotal < 1 || len(doc.WindowPairs) != doc.WindowPairsTotal {
		t.Fatalf("window coverage = %d pairs listed, window_pairs_total = %d", len(doc.WindowPairs), doc.WindowPairsTotal)
	}
	for _, p := range doc.WindowPairs {
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
	if got := metricValue(t, body, "indoorpath_cache_entries"+labels); got != doc.CacheEntries {
		t.Fatalf("cache entries metric = %d, want %d", got, doc.CacheEntries)
	}
	if got := metricValue(t, body, "indoorpath_window_entries"+labels); got < 1 {
		t.Fatalf("window entries metric = %d, want >= 1", got)
	}
}

// TestCacheEvictionCountersSurface forces exact-cache eviction with a
// tiny capacity and checks the pressure shows up on /statsz and
// /metricsz.
func TestCacheEvictionCountersSurface(t *testing.T) {
	ts := newTinyCacheTestServer(t)
	// Nine distinct departures through a 4-entry cache: at least five
	// insertions must shed an entry.
	for i := 0; i < 9; i++ {
		routeAt(t, ts.URL, fmt.Sprintf("10:%02d", i*5), false)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/statsz", &st)
	doc := st.Venues["hospital"].Methods["asyn"]
	if doc.CacheCapacity != 4 {
		t.Fatalf("exact capacity = %d, want 4", doc.CacheCapacity)
	}
	if doc.CacheEntries > doc.CacheCapacity {
		t.Fatalf("exact occupancy %d > capacity %d", doc.CacheEntries, doc.CacheCapacity)
	}
	if doc.CacheEvictions < 5 {
		t.Fatalf("exact evictions = %d, want >= 5 after 9 inserts into 4 slots", doc.CacheEvictions)
	}
	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d", resp.StatusCode)
	}
	got := metricValue(t, string(raw), `indoorpath_cache_evictions_total{venue="hospital",method="asyn"}`)
	if got != doc.CacheEvictions {
		t.Fatalf("evictions metric = %d, statsz = %d", got, doc.CacheEvictions)
	}
}

// TestScopeFilters drives mixed traffic and checks the ?venue= and
// ?method= filters narrow /statsz bodies to exactly the requested
// scope, the waiting and profile request keys included.
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
	if len(doc.Methods) != 1 || doc.Methods["asyn"].EngineEffort.Pops.Bounds == nil {
		t.Fatalf("filtered statsz methods = %v, want asyn only, with its effort", doc.Methods)
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

	var syn StatsResponse
	getJSON(t, ts.URL+"/statsz?method=syn", &syn)
	if len(syn.Venues) != 2 {
		t.Fatalf("statsz venues = %v, want both venues", syn.Venues)
	}
	for id, doc := range syn.Venues {
		if len(doc.Methods) != 1 {
			t.Fatalf("filtered statsz %s methods = %v, want syn only", id, doc.Methods)
		}
		if d, ok := doc.Methods["syn"]; !ok || d.PairCapacity <= 0 {
			t.Fatalf("filtered statsz %s missing syn or its top-K table: %v", id, doc.Methods)
		}
	}

	// Waiting routes and profiles have no pool: their method keys carry
	// the request histogram and no pool counters.
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{
		From: &erCentre, To: &wardCentre, At: "13:00", Method: methodWaiting,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("waiting route status = %d: %s", resp.StatusCode, raw)
	}
	getJSON(t, fmt.Sprintf("%s/v1/venues/hospital/profile?from=%g,%g,%d&to=%g,%g,%d",
		ts.URL, erCentre.X, erCentre.Y, erCentre.Floor, wardCentre.X, wardCentre.Y, wardCentre.Floor), nil)
	for _, m := range []string{methodWaiting, methodProfile} {
		resp, raw := doJSON(t, http.MethodGet, ts.URL+"/statsz?method="+m, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("statsz?method=%s status = %d body = %s", m, resp.StatusCode, raw)
		}
		var only StatsResponse
		decodeInto(t, raw, &only)
		d, ok := only.Venues["hospital"].Methods[m]
		if len(only.Venues["hospital"].Methods) != 1 || !ok || d.Requests.Count != 1 {
			t.Fatalf("statsz?method=%s hospital = %v, want one %s request", m, only.Venues["hospital"].Methods, m)
		}
		if d.Stats != nil || d.EngineEffort.Pops.Bounds != nil || d.PairCapacity != 0 || d.TopPairs != nil {
			t.Fatalf("statsz?method=%s carries pool figures: %+v", m, d)
		}
		if n := len(only.Venues["office"].Methods); n != 0 {
			t.Fatalf("statsz?method=%s office = %v, want no methods", m, only.Venues["office"].Methods)
		}
		var wire struct {
			Venues map[string]struct {
				Methods map[string]map[string]json.RawMessage `json:"methods"`
			} `json:"venues"`
		}
		decodeInto(t, raw, &wire)
		if keys := slices.Sorted(maps.Keys(wire.Venues["hospital"].Methods[m])); !slices.Equal(keys, []string{"request_seconds"}) {
			t.Fatalf("statsz?method=%s body keys = %v, want request_seconds only", m, keys)
		}
	}
	var all, asyn StatsResponse
	getJSON(t, ts.URL+"/statsz", &all)
	getJSON(t, ts.URL+"/statsz?method=asyn", &asyn)
	if _, ok := all.Venues["hospital"].Methods[methodWaiting]; !ok {
		t.Fatalf("unfiltered statsz hospital = %v, want the waiting histogram", all.Venues["hospital"].Methods)
	}
	if _, ok := asyn.Venues["hospital"].Methods[methodWaiting]; ok {
		t.Fatalf("statsz?method=asyn kept the waiting histogram: %v", asyn.Venues["hospital"].Methods)
	}
}

// TestScopeFilterValidation checks the strict-400 contract of the
// /statsz filters: unknown parameter names, unregistered venues and
// unknown methods are rejected rather than silently matching
// everything (or nothing).
func TestScopeFilterValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	for _, query := range []string{
		"?bogus=1", "?venues=hospital", "?venue=atlantis", "?method=dijkstra", "?outcome=ok",
	} {
		resp, raw := doJSON(t, http.MethodGet, ts.URL+"/statsz"+query, nil)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != "bad_request" {
			t.Errorf("/statsz%s status = %d body = %s, want 400 bad_request", query, resp.StatusCode, raw)
		}
	}
	// Valid scopes still answer 200.
	for _, query := range []string{"?venue=hospital&method=static", "?method=waiting", "?method=profile"} {
		if resp, raw := doJSON(t, http.MethodGet, ts.URL+"/statsz"+query, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("/statsz%s status = %d body = %s", query, resp.StatusCode, raw)
		}
	}
	// The cache view is a section of /statsz, not an endpoint.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/cachez", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/cachez status = %d, want 404", resp.StatusCode)
	}
}

// coverageStore fills a store with n partition pairs over the mall's
// first 64 partitions: pair i holds 1+i%3 windows of one endpoint
// triple and, on two pairs in three, 1+i%2 skeleton families of 1+i%4
// chains each, so window and chain counts tie across many pairs.
func coverageStore(n int) *tcache.Store {
	s := tcache.NewStore(4 * n)
	for i := range n {
		k := tcache.Key{Src: model.PartitionID(i / 64), Tgt: model.PartitionID(i % 64)}
		pk := tcache.PointKey{Src: geom.Pt(float64(i), 0, 0), Tgt: geom.Pt(0, float64(i), 0), Speed: 1}
		for w := range 1 + i%3 {
			open := temporal.TimeOfDay(w*3600 + i%7*60)
			s.Insert(k, pk, &tcache.Entry{Window: temporal.Interval{Open: open, Close: open + temporal.TimeOfDay(600+i%5*100)}})
		}
		if i%3 == 2 {
			continue
		}
		for f := range 1 + i%2 {
			iv := temporal.Interval{Open: temporal.TimeOfDay(f * 7200), Close: temporal.TimeOfDay(f*7200 + 3600 + i%3*600)}
			s.InsertFamily(k, &tcache.FamilyEntry{Window: iv, Fam: &core.SkeletonFamily{Window: iv, Chains: make([]*core.Skeleton, 1+i%4)}})
		}
	}
	return s
}

// TestCoverageRowsMatchFullSort checks the bounded coverage read
// against the listing it replaces: every pair collected, fully sorted
// (most windows or chains first, ties by ascending source, then
// target) and cut to maxPairRows. The rows, both totals and each top
// pair's day coverage must agree, on stores below, near and far above
// the row cap.
func TestCoverageRowsMatchFullSort(t *testing.T) {
	reg := NewRegistry(service.Options{})
	if _, err := reg.AddPresets("mall"); err != nil {
		t.Fatal(err)
	}
	ve, _ := reg.Get("mall")
	mv := ve.Model()
	for _, n := range []int{50, 200, 4000} {
		s := coverageStore(n)
		// Top pairs inside the listing, past it, and one with no windows.
		topKeys := []tcache.Key{{Src: 0, Tgt: 2}, {Src: 3, Tgt: 7}, {Src: 0, Tgt: 49}, {Src: 63, Tgt: 63}}
		var doc MethodStatsDoc
		top := make(map[tcache.Key]int)
		for _, k := range topKeys {
			top[k] = len(doc.TopPairs)
			doc.TopPairs = append(doc.TopPairs, HotPairDoc{Src: partName(mv, k.Src), Tgt: partName(mv, k.Tgt)})
		}
		addCoverage(&doc, mv, top, s.Coverage, s.SkeletonCoverage)

		fullSort := func(walk func(func(tcache.PairCoverage))) []tcache.PairCoverage {
			var all []tcache.PairCoverage
			walk(func(pc tcache.PairCoverage) { all = append(all, pc) })
			sort.Slice(all, func(i, j int) bool {
				if all[i].Windows != all[j].Windows {
					return all[i].Windows > all[j].Windows
				}
				if all[i].Key.Src != all[j].Key.Src {
					return all[i].Key.Src < all[j].Key.Src
				}
				return all[i].Key.Tgt < all[j].Key.Tgt
			})
			return all
		}
		windows, skels := fullSort(s.Coverage), fullSort(s.SkeletonCoverage)
		if doc.WindowPairsTotal != len(windows) || doc.SkeletonPairsTotal != len(skels) {
			t.Fatalf("n=%d: totals %d and %d, want %d and %d", n, doc.WindowPairsTotal, doc.SkeletonPairsTotal, len(windows), len(skels))
		}
		wantW := []WindowPairDoc{}
		for _, pc := range windows[:min(len(windows), maxPairRows)] {
			wantW = append(wantW, WindowPairDoc{Src: partName(mv, pc.Key.Src), Tgt: partName(mv, pc.Key.Tgt),
				Families: pc.Families, Windows: pc.Windows, DayCoverage: dayCoverage(pc)})
		}
		wantS := []SkeletonPairDoc{}
		for _, pc := range skels[:min(len(skels), maxPairRows)] {
			wantS = append(wantS, SkeletonPairDoc{Src: partName(mv, pc.Key.Src), Tgt: partName(mv, pc.Key.Tgt),
				Families: pc.Families, Chains: pc.Windows, DayCoverage: pc.CoveredSec / float64(temporal.DaySeconds)})
		}
		if !reflect.DeepEqual(doc.WindowPairs, wantW) {
			t.Fatalf("n=%d: window rows\n got %+v\nwant %+v", n, doc.WindowPairs, wantW)
		}
		if !reflect.DeepEqual(doc.SkeletonPairs, wantS) {
			t.Fatalf("n=%d: skeleton rows\n got %+v\nwant %+v", n, doc.SkeletonPairs, wantS)
		}
		for _, k := range topKeys {
			want := 0.0
			for _, pc := range windows {
				if pc.Key == k {
					want = dayCoverage(pc)
				}
			}
			if got := doc.TopPairs[top[k]].DayCoverage; got != want {
				t.Fatalf("n=%d: top pair %v day coverage %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestCoverageReadAllocs pins that a coverage read costs its rows, not
// the store: over 4,000 stored pairs it allocates as often as over 200,
// and not twice the bytes (a copy of every pair would take twenty
// times as many).
func TestCoverageReadAllocs(t *testing.T) {
	reg := NewRegistry(service.Options{})
	if _, err := reg.AddPresets("mall"); err != nil {
		t.Fatal(err)
	}
	ve, _ := reg.Get("mall")
	mv := ve.Model()
	read := func(n int) (allocs, bytes float64) {
		s := coverageStore(n)
		run := func() {
			var doc MethodStatsDoc
			addCoverage(&doc, mv, nil, s.Coverage, s.SkeletonCoverage)
		}
		allocs = testing.AllocsPerRun(20, run)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / 20
	}
	smallN, smallB := read(200)
	largeN, largeB := read(4000)
	if smallN != largeN || largeB > 2*smallB {
		t.Fatalf("coverage read: %v allocations and %.0f bytes over 200 pairs, %v and %.0f over 4000",
			smallN, smallB, largeN, largeB)
	}
}
