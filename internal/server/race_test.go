// Race-detector suite for the HTTP layer: real HTTP traffic from many
// goroutines against one Server, concurrently with live schedule
// updates. Run with `go test -race ./internal/server/` (CI does).
//
// These tests encode the serving-layer contract:
//
//  1. concurrent /route traffic over several venues answers
//     byte-identically to a sequential core.Engine;
//  2. a PUT /schedules mid-traffic is atomic — every response reflects
//     either the old or the new schedule set in full, and requests
//     after the PUT's response never see pre-swap cache entries;
//  3. /statsz counters add up under load.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// expected is the sequential-engine answer a concurrent response must
// reproduce exactly.
type expected struct {
	found  bool
	format string
	length float64
	arrive float64
	doors  []string
}

// post is a bare JSON POST/PUT helper for hot loops (no testing.TB so
// goroutines can report over channels).
func post(client *http.Client, method, url string, body, out any) (int, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// TestRaceRoutesByteIdenticalAcrossVenues hammers two venues over real
// HTTP and checks every response against precomputed sequential-engine
// answers. Float64 values survive the JSON round trip exactly, so ==
// comparisons are byte-identity.
func TestRaceRoutesByteIdenticalAcrossVenues(t *testing.T) {
	ts, reg := newTestServer(t, Options{})
	client := ts.Client()

	// Per venue: a fixed request set and its engine-computed answers.
	type fixture struct {
		id   string
		reqs []RouteRequest
		want []expected
	}
	venuePoints := map[string][]PointDoc{
		"hospital": {erCentre, wardCentre, {X: 10, Y: 10, Floor: 0} /* lobby */, {X: 50, Y: 10, Floor: 0} /* pharmacy */},
		"office":   {},
	}
	// Office probe points: partition centres, computed from the model.
	offVe, _ := reg.Get("office")
	for _, p := range offVe.Model().Partitions() {
		if p.Kind == model.OutdoorPartition {
			continue
		}
		r := p.Rect
		venuePoints["office"] = append(venuePoints["office"],
			PointDoc{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2, Floor: p.Floor()})
		if len(venuePoints["office"]) == 4 {
			break
		}
	}

	var fixtures []fixture
	for id, pts := range venuePoints {
		ve, _ := reg.Get(id)
		e := core.NewEngine(ve.Graph(), core.Options{Method: core.MethodAsyn})
		mv := ve.Model()
		fx := fixture{id: id}
		for i, src := range pts {
			for j, tgt := range pts {
				if i == j {
					continue
				}
				for _, hour := range []int{6, 11, 13, 21} {
					at := temporal.Clock(hour, 0, 0)
					fx.reqs = append(fx.reqs, RouteRequest{From: &src, To: &tgt, At: at.String()})
					p, _, err := e.Route(core.Query{Source: src.point(), Target: tgt.point(), At: at})
					switch {
					case err == nil:
						exp := expected{found: true, format: p.Format(mv), length: p.Length, arrive: float64(p.ArrivalAtTgt)}
						for _, d := range p.Doors {
							exp.doors = append(exp.doors, mv.Door(d).Name)
						}
						fx.want = append(fx.want, exp)
					default:
						// ErrNoRoute; probe points are partition centres,
						// so ErrNotIndoor cannot happen.
						fx.want = append(fx.want, expected{found: false})
					}
				}
			}
		}
		fixtures = append(fixtures, fx)
	}

	const goroutines, perG = 8, 60
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fx := fixtures[(seed+i)%len(fixtures)]
				k := (seed*perG + i*7) % len(fx.reqs)
				var rr RouteResponse
				status, err := post(client, http.MethodPost, ts.URL+"/v1/venues/"+fx.id+"/route", fx.reqs[k], &rr)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("%s req %d: status %d err %v", fx.id, k, status, err)
					return
				}
				want := fx.want[k]
				if rr.Found != want.found {
					errc <- fmt.Errorf("%s req %d: found = %v, want %v", fx.id, k, rr.Found, want.found)
					return
				}
				if !want.found {
					continue
				}
				if rr.Path.Format != want.format || rr.Path.LengthM != want.length || rr.Path.ArriveSec != want.arrive {
					errc <- fmt.Errorf("%s req %d: path %q %v→%v, want %q %v→%v",
						fx.id, k, rr.Path.Format, rr.Path.LengthM, rr.Path.ArriveSec,
						want.format, want.length, want.arrive)
					return
				}
				for di, d := range want.doors {
					if rr.Path.Doors[di].Door != d {
						errc <- fmt.Errorf("%s req %d: door[%d] = %q, want %q", fx.id, k, di, rr.Path.Doors[di].Door, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// twoDoorVenue builds hall|room connected by a near door (short path)
// and a far door (long path), the instrument for the swap-atomicity
// test: schedule set A opens only the near door, set B only the far
// one. Any response mixing the two sets would either see both doors
// closed (no route — detectable) or answer while the applied set says
// otherwise.
func twoDoorVenue(t testing.TB) (*model.Venue, float64, float64) {
	t.Helper()
	b := model.NewBuilder("two-door")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 20, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(0, 10, 20, 20, 0))
	near := b.AddDoor("near", model.PublicDoor, geom.Pt(2, 10, 0), nil)
	far := b.AddDoor("far", model.PublicDoor, geom.Pt(18, 10, 0), nil)
	b.ConnectBi(near, hall, room)
	b.ConnectBi(far, hall, room)
	v := b.MustBuild()

	src, tgt := geom.Pt(2, 5, 0), geom.Pt(2, 15, 0)
	nearLen := src.Dist(geom.Pt(2, 10, 0)) + geom.Pt(2, 10, 0).Dist(tgt)
	farLen := src.Dist(geom.Pt(18, 10, 0)) + geom.Pt(18, 10, 0).Dist(tgt)
	return v, nearLen, farLen
}

// TestRaceScheduleSwapAtomicity alternates PUT /schedules between
// "only the near door open" and "only the far door open" while 6
// goroutines route across the doors. Exactly one door is open under
// either schedule set, so every response must find a path of exactly
// nearLen or farLen; a no-route response would mean a request observed
// a half-applied update (or a stale post-swap cache entry).
func TestRaceScheduleSwapAtomicity(t *testing.T) {
	// Run the same contract over both cache backends: the validity-
	// window cache must obey the identical swap semantics (a PUT drops
	// the whole window store with the backend).
	for _, opts := range []struct {
		name string
		pool service.Options
	}{
		{"exact-cache", service.Options{}},
		{"window-cache", service.Options{WindowCache: true}},
	} {
		t.Run(opts.name, func(t *testing.T) {
			raceScheduleSwapAtomicity(t, opts.pool)
		})
	}
}

func raceScheduleSwapAtomicity(t *testing.T, poolOpts service.Options) {
	v, nearLen, farLen := twoDoorVenue(t)
	reg := NewRegistry(poolOpts)
	if err := reg.Add("two-door", v); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	client := ts.Client()

	setA := SchedulesRequest{Updates: map[string][]string{"near": nil, "far": {}}}
	setB := SchedulesRequest{Updates: map[string][]string{"near": {}, "far": nil}}
	url := ts.URL + "/v1/venues/two-door"

	if status, err := post(client, http.MethodPut, url+"/schedules", setA, nil); err != nil || status != http.StatusOK {
		t.Fatalf("initial PUT: status %d err %v", status, err)
	}

	req := RouteRequest{
		From: &PointDoc{X: 2, Y: 5, Floor: 0},
		To:   &PointDoc{X: 2, Y: 15, Floor: 0},
		At:   "12:00",
	}

	done := make(chan struct{})
	errc := make(chan error, 8)
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			set := setA
			if i%2 == 0 {
				set = setB
			}
			if status, err := post(client, http.MethodPut, url+"/schedules", set, nil); err != nil || status != http.StatusOK {
				errc <- fmt.Errorf("PUT %d: status %d err %v", i, status, err)
				return
			}
		}
	}()

	// Departure times vary per request: with the window cache enabled,
	// cross-time hits serve most of them (the doors have no checkpoints,
	// so one search covers nearly the whole day), and every served
	// answer must still reflect a fully-applied schedule set.
	ats := []string{"12:00", "9:30", "15:45", "3:10", "21:05"}
	var routers sync.WaitGroup
	for w := 0; w < 6; w++ {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for i := 0; i < 120; i++ {
				req := req
				req.At = ats[i%len(ats)]
				var rr RouteResponse
				status, err := post(client, http.MethodPost, url+"/route", req, &rr)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("route: status %d err %v", status, err)
					return
				}
				if !rr.Found {
					errc <- fmt.Errorf("no route mid-swap: a response saw a half-applied schedule update")
					return
				}
				if rr.Path.LengthM != nearLen && rr.Path.LengthM != farLen {
					errc <- fmt.Errorf("path length %v is neither %v (near) nor %v (far)", rr.Path.LengthM, nearLen, farLen)
					return
				}
			}
		}()
	}
	routers.Wait()
	close(done)
	swapper.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Sequential epilogue: after each acknowledged PUT, the very next
	// route must reflect exactly the schedule just applied — catching
	// any pre-swap cache entry surviving the swap.
	for i := 0; i < 10; i++ {
		set, wantLen := setA, nearLen
		if i%2 == 0 {
			set, wantLen = setB, farLen
		}
		if status, err := post(client, http.MethodPut, url+"/schedules", set, nil); err != nil || status != http.StatusOK {
			t.Fatalf("PUT %d: status %d err %v", i, status, err)
		}
		var rr RouteResponse
		if status, err := post(client, http.MethodPost, url+"/route", req, &rr); err != nil || status != http.StatusOK {
			t.Fatalf("route %d: status %d err %v", i, status, err)
		}
		if !rr.Found || rr.Path.LengthM != wantLen {
			t.Fatalf("route %d after PUT: found=%v len=%v, want len %v (stale cache?)",
				i, rr.Found, rr.Path.LengthM, wantLen)
		}
	}
}

// TestRaceStatszConsistent checks the counters add up after (and
// while) concurrent traffic flows: queries equals requests sent, no
// counter moves backwards, and the hit counters leave a non-negative
// miss count that bounds the engine searches.
func TestRaceStatszConsistent(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	client := ts.Client()
	url := ts.URL + "/v1/venues/hospital/route"

	const goroutines, perG = 6, 50
	var sent atomic.Int64
	errc := make(chan error, goroutines+1)
	done := make(chan struct{})

	// A poller decodes /statsz concurrently with traffic; invariants
	// must hold for every snapshot (counters only grow).
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var lastQueries int64
		for {
			select {
			case <-done:
				return
			default:
			}
			var sr StatsResponse
			if _, err := post(client, http.MethodGet, ts.URL+"/statsz", nil, &sr); err != nil {
				continue // transient decode overlap with shutdown is fine
			}
			st := sr.Venues["hospital"].Methods["asyn"]
			if st.Queries < lastQueries {
				errc <- fmt.Errorf("statsz went backwards: %d -> %d", lastQueries, st.Queries)
				return
			}
			lastQueries = st.Queries
			if !checkStats(t, "statsz hospital/asyn", st.Stats) {
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				hour := (seed + i) % 24
				req := RouteRequest{From: &erCentre, To: &wardCentre, At: temporal.Clock(hour, 0, 0).String()}
				var rr RouteResponse
				status, err := post(client, http.MethodPost, url, req, &rr)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("route: status %d err %v", status, err)
					return
				}
				sent.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	poller.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var sr StatsResponse
	if _, err := post(client, http.MethodGet, ts.URL+"/statsz", nil, &sr); err != nil {
		t.Fatal(err)
	}
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != sent.Load() {
		t.Fatalf("statsz queries = %d, want %d", st.Queries, sent.Load())
	}
	checkStats(t, "final statsz hospital/asyn", st.Stats)
	// Solo routes on a pool without a skeleton store neither compose
	// nor deduplicate.
	if st.SkeletonHits != 0 || st.Deduped != 0 {
		t.Fatalf("skeleton hits %d, deduped %d, want 0 each", st.SkeletonHits, st.Deduped)
	}
	if st.CacheHits == 0 {
		t.Fatal("traffic with only 24 distinct queries should produce cache hits")
	}
	if st.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0 (no schedule updates)", st.Epoch)
	}
}

// TestRaceStatszCoalesced re-runs the counter-consistency hammer with
// the standing coalescer in front of the pools: the /statsz partition
// invariant (hits + window hits + misses + deduped == queries) must
// keep holding when SharedBatch dedup and coalesced flushes combine,
// no request may be double-counted (a deduped member of a coalesced
// flush is one query, not two), and the coalescer's own counters must
// stay coherent with the pool's.
func TestRaceStatszCoalesced(t *testing.T) {
	reg := NewRegistry(service.Options{SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{
		Coalesce:     true,
		CoalesceHold: 2 * time.Millisecond,
	}))
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + "/v1/venues/hospital/route"

	const goroutines, perG = 6, 40
	var sent atomic.Int64
	errc := make(chan error, goroutines+1)
	done := make(chan struct{})

	checkSnapshot := func(sr *StatsResponse) error {
		st := sr.Venues["hospital"].Methods["asyn"]
		if st.CacheHits+st.WindowHits+st.CacheMisses()+st.Deduped != st.Queries {
			return fmt.Errorf("statsz does not partition: %+v", st)
		}
		if st.CacheMisses() < 0 {
			return fmt.Errorf("negative cache misses: %+v", st)
		}
		if st.EngineSearches > st.CacheMisses() {
			return fmt.Errorf("more engine runs than misses (coalesced members double-counted?): %+v", st)
		}
		cs := sr.Venues["hospital"].Methods["asyn"].Coalesce
		if cs.Groups > cs.Flushes {
			return fmt.Errorf("coalesce groups %d > flushes %d", cs.Groups, cs.Flushes)
		}
		if cs.Answers < 2*cs.Groups {
			return fmt.Errorf("coalesce answers %d < 2×groups %d", cs.Answers, cs.Groups)
		}
		if cs.Queries < cs.Answers {
			return fmt.Errorf("coalesce answers %d exceed accepted queries %d", cs.Answers, cs.Queries)
		}
		return nil
	}

	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var sr StatsResponse
			if _, err := post(client, http.MethodGet, ts.URL+"/statsz", nil, &sr); err != nil {
				continue // transient decode overlap with shutdown is fine
			}
			if err := checkSnapshot(&sr); err != nil {
				errc <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// A few hot departures so concurrent arrivals share keys
				// (dedup + shared runs inside coalesced flushes).
				hour := 10 + (seed+i)%2
				req := RouteRequest{From: &erCentre, To: &wardCentre, At: temporal.Clock(hour, 0, 0).String()}
				var rr RouteResponse
				status, err := post(client, http.MethodPost, url, req, &rr)
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("route: status %d err %v", status, err)
					return
				}
				sent.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	poller.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var sr StatsResponse
	if _, err := post(client, http.MethodGet, ts.URL+"/statsz", nil, &sr); err != nil {
		t.Fatal(err)
	}
	if err := checkSnapshot(&sr); err != nil {
		t.Fatal(err)
	}
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != sent.Load() {
		t.Fatalf("pool queries = %d, want %d (every request exactly once)", st.Queries, sent.Load())
	}
	cs := sr.Venues["hospital"].Methods["asyn"].Coalesce
	if cs.Queries != sent.Load() {
		t.Fatalf("coalescer accepted %d queries, want %d", cs.Queries, sent.Load())
	}
	if cs.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	if cs.Groups == 0 {
		t.Fatal("6 goroutines hammering 2 hot keys through a 2ms hold window never coalesced")
	}
	if sr.Server.Timeouts != 0 {
		t.Fatalf("coalesced traffic within the default deadline produced %d timeouts", sr.Server.Timeouts)
	}
}
