package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// windowDemoVenue: hall and shop joined by one door open [8:00, 16:00)
// — checkpoint slots [0,8), [8,16), [16,24) — the minimal fixture where
// window behaviour is fully predictable.
func windowDemoVenue(t testing.TB) (*itgraph.Graph, *model.Venue) {
	t.Helper()
	b := model.NewBuilder("window-demo")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), temporal.MustSchedule(
		temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(d, hall, shop)
	v := b.MustBuild()
	return itgraph.MustNew(v), v
}

func TestWindowPoolProvenance(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, WindowCache: true})

	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	r1 := pool.route(nil, q)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.Hit != HitMiss || r1.CacheHit {
		t.Fatalf("first route: hit=%q cacheHit=%v, want miss", r1.Hit, r1.CacheHit)
	}
	if pool.Stats().Windows != 1 {
		t.Fatalf("Windows = %d after one found route, want 1", pool.Stats().Windows)
	}

	// Same slot, shifted departure: a window hit with rebased arrivals —
	// byte-identical to a fresh engine run at the shifted time.
	q2 := q
	q2.At = temporal.Clock(13, 30, 0)
	r2 := pool.route(nil, q2)
	if r2.Hit != HitWindow || !r2.CacheHit {
		t.Fatalf("shifted route: hit=%q cacheHit=%v, want window", r2.Hit, r2.CacheHit)
	}
	wantPath, _, err := core.NewEngine(g, core.Options{Method: core.MethodAsyn}).Route(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Path, wantPath) {
		t.Fatalf("window answer differs from engine:\n got  %+v\n want %+v", r2.Path, wantPath)
	}
	// Stats on a window hit are the producing search's, like exact hits.
	if r2.Stats != r1.Stats {
		t.Fatalf("window hit stats %+v, want the producing search's %+v", r2.Stats, r1.Stats)
	}

	// An identical repeat serves from the window store again (window
	// hits are deliberately not promoted into the exact cache — a sweep
	// would flood it with one-shot entries); the engine-computed
	// original, however, is an exact hit.
	r3 := pool.route(nil, q2)
	if r3.Hit != HitWindow || !r3.CacheHit {
		t.Fatalf("repeat: hit=%q, want window", r3.Hit)
	}
	if !reflect.DeepEqual(r3.Path, wantPath) {
		t.Fatal("repeated window answer differs from engine")
	}
	if r := pool.route(nil, q); r.Hit != HitExact || !r.CacheHit {
		t.Fatalf("original repeat: hit=%q, want exact", r.Hit)
	}

	st := pool.Stats()
	if st.Queries != 4 || st.CacheHits != 1 || st.WindowHits != 2 || st.CacheMisses() != 1 {
		t.Fatalf("stats = %v", st)
	}
	// At quiescence the real engine-run counter agrees with the derived
	// miss count (the former is what /metricsz exports: it must be
	// monotone, which the derived view is not under concurrency).
	if st.EngineSearches != st.CacheMisses() {
		t.Fatalf("EngineSearches = %d, CacheMisses() = %d", st.EngineSearches, st.CacheMisses())
	}

	// A departure in another slot must not hit the window.
	q4 := q
	q4.At = temporal.Clock(7, 0, 0)
	if r := pool.route(nil, q4); r.Hit != HitMiss {
		t.Fatalf("other-slot departure: hit=%q, want miss", r.Hit)
	}
}

func TestWindowPoolKeyIsolation(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, WindowCache: true})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.route(nil, q); r.Err != nil {
		t.Fatal(r.Err)
	}

	// Same partitions, moved source point: windows are exact-endpoint.
	qMoved := q
	qMoved.Source = geom.Pt(6, 5, 0)
	qMoved.At = temporal.Clock(12, 30, 0)
	if r := pool.route(nil, qMoved); r.Hit != HitMiss {
		t.Fatalf("moved point: hit=%q, want miss", r.Hit)
	}
	// Same points, different speed: windows are per-speed.
	qFast := q
	qFast.Speed = 3.0
	qFast.At = temporal.Clock(12, 30, 0)
	if r := pool.route(nil, qFast); r.Hit != HitMiss {
		t.Fatalf("different speed: hit=%q, want miss", r.Hit)
	}
	// The default speed spelled explicitly is the same query family.
	qExplicit := q
	qExplicit.Speed = core.WalkingSpeedMPS
	qExplicit.At = temporal.Clock(13, 0, 0)
	if r := pool.route(nil, qExplicit); r.Hit != HitWindow {
		t.Fatalf("explicit default speed: hit=%q, want window", r.Hit)
	}
}

func TestWindowPoolNoRouteNotWindowCached(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, WindowCache: true})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(20, 0, 0)}
	if r := pool.route(nil, q); !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", r.Err)
	}
	if pool.Stats().Windows != 0 {
		t.Fatalf("Windows = %d, want 0 (no-route outcomes have no window)", pool.Stats().Windows)
	}
	// The exact cache still covers the identical repeat.
	if r := pool.route(nil, q); r.Hit != HitExact {
		t.Fatalf("repeat: hit=%q, want exact", r.Hit)
	}
	// A same-slot shifted no-route query is a plain miss — never a false
	// window answer.
	q2 := q
	q2.At = temporal.Clock(21, 0, 0)
	if r := pool.route(nil, q2); r.Hit != HitMiss || !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("shifted no-route: hit=%q err=%v", r.Hit, r.Err)
	}
}

func TestWindowPoolSwapDropsStore(t *testing.T) {
	g, v := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, WindowCache: true})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	if r := pool.route(nil, q); r.Err != nil {
		t.Fatal(r.Err)
	}
	if pool.Stats().Windows != 1 {
		t.Fatalf("Windows = %d, want 1", pool.Stats().Windows)
	}

	// Close the door for the day: the swap must drop the whole store and
	// post-swap queries must never see the pre-swap window.
	did, _ := v.DoorByName("d")
	night := temporal.MustSchedule(temporal.MustInterval(temporal.Clock(2, 0, 0), temporal.Clock(3, 0, 0)))
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{did: night}); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().Windows != 0 {
		t.Fatalf("Windows = %d after swap, want 0", pool.Stats().Windows)
	}
	q2 := q
	q2.At = temporal.Clock(12, 30, 0)
	r := pool.route(nil, q2)
	if r.Hit != HitMiss || !errors.Is(r.Err, core.ErrNoRoute) {
		t.Fatalf("post-swap: hit=%q err=%v, want a fresh no-route", r.Hit, r.Err)
	}
}

// sweepVenue: six rooms in a row joined by five doors with staggered
// business hours, so a day sweep of the long OD pair moves through
// no-route phases, a found phase, and plenty of reusable windows.
// Checkpoints: 6:00, 8:00, 10:00, 16:00, 20:00, 22:00.
func sweepVenue(t testing.TB) *itgraph.Graph {
	t.Helper()
	b := model.NewBuilder("sweep")
	scheds := []temporal.Schedule{
		nil, // always open
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(6, 0, 0), temporal.Clock(22, 0, 0))),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))),
		nil,
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(10, 0, 0), temporal.Clock(20, 0, 0))),
	}
	var prev model.PartitionID
	for i := 0; i <= len(scheds); i++ {
		p := b.AddPartition(fmt.Sprintf("room%d", i), model.PublicPartition,
			geom.NewRect(float64(i)*10, 0, float64(i+1)*10, 10, 0))
		if i > 0 {
			d := b.AddDoor(fmt.Sprintf("d%d", i), model.PublicDoor,
				geom.Pt(float64(i)*10, 5, 0), scheds[i-1])
			b.ConnectBi(d, prev, p)
		}
		prev = p
	}
	return itgraph.MustNew(b.MustBuild())
}

// TestWindowPoolSweepByteIdentical is the subsystem's oracle bar: a
// fine departure-time sweep through a window-cache pool answers
// byte-identically to a sequential engine, for every method, while
// actually serving window hits. The random grid venue adds adversarial
// breadth (random schedules, directionality, private rooms).
func TestWindowPoolSweepByteIdentical(t *testing.T) {
	sweepG := sweepVenue(t)
	rng := rand.New(rand.NewSource(31))
	gridG := itgraph.MustNew(gridVenue(t, rng, 4, 5))
	fixtures := []struct {
		name string
		g    *itgraph.Graph
		ods  []core.Query
	}{
		{"sweep", sweepG, []core.Query{
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(55, 5, 0)},  // crosses every door
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(25, 5, 0)},  // first two doors
			{Source: geom.Pt(32, 5, 0), Target: geom.Pt(38, 5, 0)}, // intra-room
		}},
		{"grid", gridG, []core.Query{
			{Source: geom.Pt(5, 5, 0), Target: geom.Pt(45, 35, 0)},
			{Source: geom.Pt(15, 25, 0), Target: geom.Pt(25, 25, 0)},
			{Source: geom.Pt(5, 35, 0), Target: geom.Pt(15, 35, 0)},
		}},
	}
	for _, fx := range fixtures {
		for _, method := range []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic} {
			pool := New(fx.g, Options{Engine: core.Options{Method: method}, WindowCache: true})
			seq := core.NewEngine(fx.g, core.Options{Method: method})
			for _, od := range fx.ods {
				for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += 900 { // 15 min steps
					q := od
					q.At = at
					wantPath, _, wantErr := seq.Route(q)
					got := pool.route(nil, q)
					if (got.Err == nil) != (wantErr == nil) {
						t.Fatalf("%s/%v at %v: err %v vs %v (hit=%q)", fx.name, method, at, got.Err, wantErr, got.Hit)
					}
					if wantErr != nil {
						if errors.Is(got.Err, core.ErrNoRoute) != errors.Is(wantErr, core.ErrNoRoute) {
							t.Fatalf("%s/%v at %v: err %v vs %v", fx.name, method, at, got.Err, wantErr)
						}
						continue
					}
					if !reflect.DeepEqual(got.Path, wantPath) {
						t.Fatalf("%s/%v at %v (hit=%q): path mismatch\n got  %+v\n want %+v",
							fx.name, method, at, got.Hit, got.Path, wantPath)
					}
				}
			}
			st := pool.Stats()
			if fx.name == "sweep" && st.WindowHits == 0 {
				t.Fatalf("%s/%v: sweep produced no window hits (%v)", fx.name, method, st)
			}
			// The hit counters leave a non-negative miss count that
			// bounds the engine searches; without a skeleton store
			// nothing is composed.
			if st.CacheMisses() < 0 || st.EngineSearches > st.CacheMisses() || st.SkeletonHits != 0 {
				t.Fatalf("%s/%v: stats do not partition: %v", fx.name, method, st)
			}
		}
	}
}

// TestWindowPoolSweepBeatsExact pins the acceptance criterion: on a
// departure-time-sweep workload the window cache serves window hits and
// runs strictly fewer engine searches than the exact-only cache.
func TestWindowPoolSweepBeatsExact(t *testing.T) {
	g := sweepVenue(t)
	var batch []core.Query
	for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += 600 { // 10 min steps
		batch = append(batch, core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(55, 5, 0), At: at})
	}
	exact := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, Workers: 1})
	window := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, Workers: 1, WindowCache: true})
	for _, r := range exact.RouteBatch(batch) {
		if r.Err != nil && !errors.Is(r.Err, core.ErrNoRoute) {
			t.Fatal(r.Err)
		}
	}
	for _, r := range window.RouteBatch(batch) {
		if r.Err != nil && !errors.Is(r.Err, core.ErrNoRoute) {
			t.Fatal(r.Err)
		}
	}
	se, sw := exact.Stats(), window.Stats()
	if sw.WindowHits == 0 {
		t.Fatalf("window pool served no window hits on a sweep: %v", sw)
	}
	if sw.CacheMisses() >= se.CacheMisses() {
		t.Fatalf("window pool ran %d engine searches, exact pool %d — want strictly fewer",
			sw.CacheMisses(), se.CacheMisses())
	}
}

// TestWindowPoolBatchComposesWithDedup: inside one batch, identical
// queries still dedupe (sharing the canonical outcome and provenance)
// and distinct departures window-hit, all byte-identical to a
// sequential engine.
func TestWindowPoolBatchComposesWithDedup(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}, Workers: 1, WindowCache: true})
	od := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0)}
	mk := func(at temporal.TimeOfDay) core.Query { q := od; q.At = at; return q }
	batch := []core.Query{
		mk(temporal.Clock(12, 0, 0)),
		mk(temporal.Clock(12, 0, 0)), // duplicate → shared
		mk(temporal.Clock(13, 0, 0)), // same slot → window hit
		mk(temporal.Clock(13, 0, 0)), // duplicate of the window hit → shared
		mk(temporal.Clock(7, 0, 0)),  // other slot → miss (no route)
	}
	rs := pool.RouteBatch(batch)
	seq := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	for i, q := range batch {
		wantPath, _, wantErr := seq.Route(q)
		sameOutcome(t, fmt.Sprintf("batch[%d]", i), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	wantHits := []struct {
		hit    Hit
		shared bool
	}{
		{HitMiss, false}, {HitMiss, true}, {HitWindow, false}, {HitWindow, true}, {HitMiss, false},
	}
	for i, want := range wantHits {
		if rs[i].Hit != want.hit || rs[i].Shared != want.shared {
			t.Fatalf("batch[%d]: hit=%q shared=%v, want %q/%v", i, rs[i].Hit, rs[i].Shared, want.hit, want.shared)
		}
	}
	st := pool.Stats()
	if st.Deduped != 2 || st.WindowHits != 1 {
		t.Fatalf("stats = %v, want deduped=2 windowHits=1", st)
	}
}

func TestWindowPoolDisabledByDefault(t *testing.T) {
	g, _ := windowDemoVenue(t)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	pool.route(nil, q)
	q2 := q
	q2.At = temporal.Clock(13, 0, 0)
	if r := pool.route(nil, q2); r.Hit != HitMiss {
		t.Fatalf("default pool served hit=%q for a shifted departure, want miss", r.Hit)
	}
	if st := pool.Stats(); st.Windows != 0 || st.WindowCapacity != 0 {
		t.Fatalf("default pool holds %d of %d windows", st.Windows, st.WindowCapacity)
	}
}
