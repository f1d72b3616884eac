package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// gridVenue builds a rows x cols grid of public rooms with randomised
// door schedules and directionality — the shared adversarial fixture of
// this package's tests.
func gridVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("grid-%dx%d", rows, cols))
	const cell = 10.0
	parts := make([][]model.PartitionID, rows)
	for r := 0; r < rows; r++ {
		parts[r] = make([]model.PartitionID, cols)
		for c := 0; c < cols; c++ {
			kind := model.PublicPartition
			corner := (r == 0 || r == rows-1) && (c == 0 || c == cols-1)
			if !corner && rng.Float64() < 0.12 {
				kind = model.PrivatePartition
			}
			parts[r][c] = b.AddPartition(fmt.Sprintf("r%dc%d", r, c), kind,
				geom.NewRect(float64(c)*cell, float64(r)*cell, float64(c+1)*cell, float64(r+1)*cell, 0))
		}
	}
	randSched := func() temporal.Schedule {
		switch rng.Intn(3) {
		case 0:
			return nil // always open
		default:
			o := temporal.TimeOfDay(rng.Intn(14) * 3600)
			return temporal.MustSchedule(temporal.MustInterval(o, o+temporal.TimeOfDay(3600*(2+rng.Intn(10)))))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c+1)*cell, float64(r)*cell+cell/2, 0), randSched())
				b.ConnectBi(d, parts[r][c], parts[r][c+1])
			}
			if r+1 < rows && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c)*cell+cell/2, float64(r+1)*cell, 0), randSched())
				b.ConnectBi(d, parts[r][c], parts[r+1][c])
			}
		}
	}
	return b.MustBuild()
}

// randomQueries draws n random point-to-point queries over a grid venue
// of the given extent, including a sprinkle of duplicates and outdoor
// (uncacheable) endpoints.
func randomQueries(rng *rand.Rand, n int, w, h float64) []core.Query {
	qs := make([]core.Query, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < 0.2 {
			qs = append(qs, qs[rng.Intn(len(qs))]) // exact duplicate
			continue
		}
		q := core.Query{
			Source: geom.Pt(rng.Float64()*w, rng.Float64()*h, 0),
			Target: geom.Pt(rng.Float64()*w, rng.Float64()*h, 0),
			At:     temporal.TimeOfDay(rng.Intn(86400)),
		}
		if rng.Float64() < 0.05 {
			q.Source.X = -50 // outside every partition
		}
		qs = append(qs, q)
	}
	return qs
}

// sameOutcome asserts that a pool result and a sequential engine result
// are byte-for-byte identical (path contents and error identity).
func sameOutcome(t *testing.T, label string, gotPath *core.Path, gotErr error, wantPath *core.Path, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v vs sequential %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, core.ErrNoRoute) && !errors.Is(gotErr, core.ErrNotIndoor) {
			t.Fatalf("%s: unexpected error class %v", label, gotErr)
		}
		if errors.Is(gotErr, core.ErrNoRoute) != errors.Is(wantErr, core.ErrNoRoute) {
			t.Fatalf("%s: error mismatch %v vs %v", label, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("%s: path mismatch\n got: %+v\nwant: %+v", label, gotPath, wantPath)
	}
}

func TestPoolRouteMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, method := range []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic} {
		v := gridVenue(t, rng, 4, 5)
		g := itgraph.MustNew(v)
		pool := New(g, Options{Engine: core.Options{Method: method}})
		seq := core.NewEngine(g, core.Options{Method: method})
		for _, q := range randomQueries(rng, 60, 50, 40) {
			wantPath, _, wantErr := seq.Route(q)
			gotPath, _, gotErr := pool.Route(q)
			sameOutcome(t, fmt.Sprintf("%v %v", method, q.At), gotPath, gotErr, wantPath, wantErr)
		}
	}
}

func TestPoolCacheHitsAndExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	v := gridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}})

	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(35, 35, 0), At: temporal.Clock(12, 0, 0)}
	r1 := pool.route(nil, q)
	if r1.CacheHit {
		t.Fatal("first route reported a cache hit")
	}
	r2 := pool.route(nil, q)
	if !r2.CacheHit {
		t.Fatal("identical repeat was not served from cache")
	}
	if !reflect.DeepEqual(r1.Path, r2.Path) || !errors.Is(r2.Err, r1.Err) && (r1.Err != nil || r2.Err != nil) {
		t.Fatal("cached outcome differs from computed outcome")
	}

	// A 24h-shifted time normalises to the same instant and must hit.
	qShift := q
	qShift.At = q.At + temporal.DaySeconds
	if r := pool.route(nil, qShift); !r.CacheHit {
		t.Fatal("day-wrapped identical query missed the cache")
	}

	// Same partitions, different point: must MISS (exact semantics).
	qMoved := q
	qMoved.Source = geom.Pt(6, 6, 0)
	if r := pool.route(nil, qMoved); r.CacheHit {
		t.Fatal("different source point wrongly hit the cache")
	}
	// Same points, different slot: must miss.
	qLate := q
	qLate.At = temporal.Clock(23, 30, 0)
	if r := pool.route(nil, qLate); r.CacheHit {
		t.Fatal("different time wrongly hit the cache")
	}

	st := pool.Stats()
	if st.CacheHits != 2 {
		t.Fatalf("CacheHits = %d, want 2", st.CacheHits)
	}
	if pool.Stats().CacheEntries == 0 {
		t.Fatal("cache is empty after cached routes")
	}
}

// TestPoolCachesFoundAndNoRoute: found and no-route outcomes both
// hit the exact cache on an identical repeat.
func TestPoolCachesFoundAndNoRoute(t *testing.T) {
	// Deterministic two-room venue: one door open [8:00, 16:00), so the
	// checkpoint slots are [0,8), [8,16), [16,24).
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}})

	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.route(nil, q); r.Err != nil || r.CacheHit {
		t.Fatalf("first route: err = %v, cache hit %v", r.Err, r.CacheHit)
	}
	if r := pool.route(nil, q); !r.CacheHit {
		t.Fatal("found outcome was not cached")
	}

	night := q
	night.At = temporal.Clock(20, 0, 0)
	if r := pool.route(nil, night); !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("night route err = %v, want ErrNoRoute", r.Err)
	}
	if r := pool.route(nil, night); !r.CacheHit || !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("no-route repeat: cache hit %v, err %v; want a cached ErrNoRoute", r.CacheHit, r.Err)
	}
}

// TestPoolSwapIsTheOnlyDrop pins what a schedule swap does to the
// stores: it empties the exact cache, the window store and the
// skeleton families at once, while the eviction counters, which count
// capacity pressure only, keep their values across it and go on
// rising afterwards.
func TestPoolSwapIsTheOnlyDrop(t *testing.T) {
	g, v := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}, CacheCapacity: 4, WindowCache: true, SkeletonCache: true})
	rng := rand.New(rand.NewSource(8))
	// wave routes hall -> shop from random points, found at noon and
	// no-route at 20:00, until the exact cache has evicted past floor.
	wave := func(floor int64) Stats {
		t.Helper()
		for i := 0; i < 200; i++ {
			if st := pool.Stats(); st.CacheEvictions > floor {
				return st
			}
			src := geom.Pt(1+8*rng.Float64(), 1+8*rng.Float64(), 0)
			tgt := geom.Pt(11+8*rng.Float64(), 1+8*rng.Float64(), 0)
			for _, at := range []temporal.TimeOfDay{temporal.Clock(12, 0, 0), temporal.Clock(20, 0, 0)} {
				r := pool.route(nil, core.Query{Source: src, Target: tgt, At: at})
				if found := at < temporal.Clock(16, 0, 0); (r.Err == nil) != found {
					t.Fatalf("route at %v: err = %v, want found = %v", at, r.Err, found)
				}
			}
		}
		t.Fatalf("the exact cache never evicted past %d: %v", floor, pool.Stats())
		return Stats{}
	}
	before := wave(0)
	if before.CacheEntries == 0 || before.Windows == 0 || before.SkelFamilies == 0 {
		t.Fatalf("stores not filled before the swap: %+v", before)
	}

	// The swap keeps the door's hours, so the second wave routes as the
	// first did.
	did, _ := v.DoorByName("d")
	hours := temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0)))
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{did: hours}); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.CacheEntries != 0 || after.Windows != 0 || after.SkelFamilies != 0 {
		t.Fatalf("swap left entries %d, windows %d, families %d", after.CacheEntries, after.Windows, after.SkelFamilies)
	}
	if after.CacheEvictions != before.CacheEvictions || after.WindowEvictions != before.WindowEvictions ||
		after.SkelEvictions != before.SkelEvictions {
		t.Fatalf("evictions moved across the swap: before %d/%d/%d, after %d/%d/%d",
			before.CacheEvictions, before.WindowEvictions, before.SkelEvictions,
			after.CacheEvictions, after.WindowEvictions, after.SkelEvictions)
	}
	if after.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d after one swap from %d", after.Epoch, before.Epoch)
	}
	last := wave(before.CacheEvictions)
	t.Logf("cache evictions: %d before the swap, %d after it, %d after the second wave",
		before.CacheEvictions, after.CacheEvictions, last.CacheEvictions)
}

func TestPoolUpdateSchedules(t *testing.T) {
	// Two rooms, door open [8:00, 16:00). After closing the door for the
	// whole day via UpdateSchedules, live routing must flip to no-route
	// and match a fresh engine over the new graph byte for byte.
	b := model.NewBuilder("swap")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), temporal.MustSchedule(
		temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(d, hall, shop)
	v := b.MustBuild()
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}})

	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.route(nil, q); r.Err != nil {
		t.Fatalf("route before swap: %v", r.Err)
	}
	pool.route(nil, q) // populate the cache

	did, _ := v.DoorByName("d")
	night := temporal.MustSchedule(temporal.MustInterval(temporal.Clock(2, 0, 0), temporal.Clock(3, 0, 0)))
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{did: night}); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().CacheEntries != 0 {
		t.Fatalf("CacheEntries = %d after schedule swap", pool.Stats().CacheEntries)
	}
	r := pool.route(nil, q)
	if !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("route after closing the door: err = %v, want ErrNoRoute", r.Err)
	}
	if r.CacheHit {
		t.Fatal("post-swap answer served from the pre-swap cache")
	}
	// Byte-for-byte parity with a fresh engine over the swapped graph.
	q2 := q
	q2.At = temporal.Clock(2, 30, 0)
	wantPath, _, wantErr := core.NewEngine(pool.Graph(), core.Options{Method: core.MethodAsyn}).Route(q2)
	got := pool.route(nil, q2)
	sameOutcome(t, "post-swap", got.Path, got.Err, wantPath, wantErr)
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{model.DoorID(99): nil}); err == nil {
		t.Fatal("UpdateSchedules accepted an unknown door")
	}
}

func TestPoolCacheHotBucketEviction(t *testing.T) {
	// One OD pair, one slot, more distinct departure times than the
	// capacity: the just-written entry must survive eviction, so an
	// immediate repeat hits the cache.
	b := model.NewBuilder("hot")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	b.ConnectBi(d, hall, shop)
	g := itgraph.MustNew(b.MustBuild())
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}, CacheCapacity: 4})
	for i := 0; i < 10; i++ {
		q := core.Query{
			Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0),
			At: temporal.Clock(12, 0, i), // distinct seconds, same slot
		}
		pool.route(nil, q)
		if n := pool.Stats().CacheEntries; n > 4 {
			t.Fatalf("cache grew to %d entries, capacity 4", n)
		}
		if r := pool.route(nil, q); !r.CacheHit {
			t.Fatalf("iteration %d: just-computed entry was evicted", i)
		}
	}
}

func TestPoolCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	v := gridVenue(t, rng, 5, 5)
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}, CacheCapacity: 8})
	for _, q := range randomQueries(rng, 200, 50, 50) {
		pool.route(nil, q)
		if n := pool.Stats().CacheEntries; n > 8 {
			t.Fatalf("cache grew to %d entries, capacity 8", n)
		}
	}
}

func TestPoolCacheDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	v := gridVenue(t, rng, 3, 3)
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodSyn}, CacheCapacity: -1})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(25, 25, 0), At: temporal.Clock(12, 0, 0)}
	pool.route(nil, q)
	if r := pool.route(nil, q); r.CacheHit {
		t.Fatal("cache hit with caching disabled")
	}
	if pool.Stats().CacheEntries != 0 {
		t.Fatal("disabled cache holds entries")
	}
}

func TestRouteBatchDedupAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	v := gridVenue(t, rng, 4, 5)
	g := itgraph.MustNew(v)
	for _, workers := range []int{1, 4} {
		pool := New(g, Options{
			Engine:        core.Options{Method: core.MethodAsyn},
			Workers:       workers,
			CacheCapacity: -1, // isolate dedup from caching
		})
		qs := randomQueries(rng, 80, 50, 40)
		rs := pool.RouteBatch(qs)
		if len(rs) != len(qs) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(rs), len(qs))
		}
		seq := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
		sharedSeen := false
		for i, q := range qs {
			wantPath, _, wantErr := seq.Route(q)
			sameOutcome(t, fmt.Sprintf("workers=%d i=%d", workers, i), rs[i].Path, rs[i].Err, wantPath, wantErr)
			sharedSeen = sharedSeen || rs[i].Shared
		}
		if !sharedSeen {
			t.Fatalf("workers=%d: no batch entry was deduplicated (fixture has duplicates)", workers)
		}
		if st := pool.Stats(); st.Deduped == 0 {
			t.Fatalf("workers=%d: Stats.Deduped = 0", workers)
		}
	}
}

func TestRouteBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := itgraph.MustNew(gridVenue(t, rng, 2, 2))
	pool := New(g, Options{})
	if rs := pool.RouteBatch(nil); len(rs) != 0 {
		t.Fatalf("RouteBatch(nil) returned %d results", len(rs))
	}
}

func TestPoolStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := itgraph.MustNew(gridVenue(t, rng, 3, 3))
	pool := New(g, Options{Workers: 2})
	qs := randomQueries(rng, 30, 30, 30)
	pool.RouteBatch(qs)
	pool.Route(qs[0])
	st := pool.Stats()
	if st.Queries != int64(len(qs))+1 {
		t.Fatalf("Queries = %d, want %d", st.Queries, len(qs)+1)
	}
	if st.Batches != 1 {
		t.Fatalf("Batches = %d, want 1", st.Batches)
	}
	if st.EnginesCreated == 0 {
		t.Fatal("EnginesCreated = 0")
	}
}

func TestStatsSerialisation(t *testing.T) {
	st := Stats{Queries: 10, Batches: 1, CacheHits: 3, WindowHits: 1, SkeletonHits: 1, Deduped: 2, EnginesCreated: 4,
		EngineSearches: 3, SharedRuns: 1, SharedAnswers: 2, Epoch: 5}
	if got := st.CacheMisses(); got != 3 {
		t.Fatalf("CacheMisses = %d, want 3", got)
	}
	want := "queries=10 batches=1 cacheHits=3 windowHits=1 skeletonHits=1 cacheMisses=3 deduped=2 sharedRuns=1 sharedAnswers=2 engines=4 epoch=5"
	if st.String() != want {
		t.Fatalf("String = %q, want %q", st, want)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip: %+v != %+v", back, st)
	}
	for _, field := range []string{"queries", "batches", "cache_hits", "window_hits", "deduped", "engines_created", "engine_searches", "shared_runs", "shared_answers", "epoch"} {
		if !strings.Contains(string(raw), `"`+field+`"`) {
			t.Fatalf("JSON missing %q: %s", field, raw)
		}
	}
}

func TestStatsEpochCountsSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := itgraph.MustNew(gridVenue(t, rng, 2, 2))
	pool := New(g, Options{})
	if e := pool.Stats().Epoch; e != 0 {
		t.Fatalf("initial epoch = %d", e)
	}
	pool.SetGraph(g)
	if err := pool.UpdateSchedules(nil); err != nil {
		t.Fatal(err)
	}
	if e := pool.Stats().Epoch; e != 2 {
		t.Fatalf("epoch after two swaps = %d, want 2", e)
	}
}
