// Skeleton-layer suite: pool answers composed from stored skeleton
// families must be byte-identical to fresh sequential engine runs, a
// jittered same-pair wave must collapse to about one search, and the
// hit/miss partition must keep holding with the new hit class.
package service

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/tcache"
	"indoorpath/internal/temporal"
)

// jitterPair returns n queries between independently jittered interior
// points of two fixed cells of a gridVenue (cell size 10), all at the
// same departure — the hot-lobby wave shape exact and window caches
// get zero reuse on.
func jitterPair(rng *rand.Rand, sr, sc, tr, tc int, at temporal.TimeOfDay, n int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = core.Query{
			Source: geom.Pt(float64(sc)*10+1+rng.Float64()*8, float64(sr)*10+1+rng.Float64()*8, 0),
			Target: geom.Pt(float64(tc)*10+1+rng.Float64()*8, float64(tr)*10+1+rng.Float64()*8, 0),
			At:     at,
		}
	}
	return qs
}

// TestSkeletonPoolByteIdentical: every answer out of a skeleton-cache
// pool — composed or searched — equals the fresh sequential engine
// answer byte for byte, across methods and random temporal venues, and
// the workload actually exercises compositions.
func TestSkeletonPoolByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	var skeletonHits int64
	for trial := 0; trial < 6; trial++ {
		v := gridVenue(t, rng, 3, 3)
		g := itgraph.MustNew(v)
		for _, m := range allMethods {
			pool := New(g, Options{
				Engine:        core.Options{Method: m},
				CacheCapacity: -1, // isolate the skeleton path
				SkeletonCache: true,
			})
			oracle := core.NewEngine(g, core.Options{Method: m})
			at := temporal.TimeOfDay(rng.Intn(86400))
			for _, q := range jitterPair(rng, 0, 0, 2, 2, at, 12) {
				r := pool.RouteResult(q)
				wantPath, _, wantErr := oracle.Route(q)
				if (r.Err == nil) != (wantErr == nil) {
					t.Fatalf("%v hit=%q: err %v, sequential %v", m, r.Hit, r.Err, wantErr)
				}
				if !reflect.DeepEqual(r.Path, wantPath) {
					t.Fatalf("%v hit=%q at %v: pool path %+v != sequential %+v", m, r.Hit, q.At, r.Path, wantPath)
				}
			}
			skeletonHits += pool.Stats().SkeletonHits
		}
	}
	if skeletonHits == 0 {
		t.Fatal("no skeleton hits across all trials — the property was vacuous")
	}
}

// TestSkeletonPoolStatsPartition pins the extended accounting: exact +
// window + skeleton + deduped + misses == queries, engine searches
// never exceed misses, gauges reflect the store, and provenance uses
// the new reason when a family refuses.
func TestSkeletonPoolStatsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	v := gridVenue(t, rng, 3, 3)
	pool := New(itgraph.MustNew(v), Options{
		Engine:        core.Options{Method: core.MethodSyn},
		WindowCache:   true,
		SkeletonCache: true,
	})
	at := temporal.Clock(12, 0, 0)
	pool.RouteBatch(jitterPair(rng, 0, 0, 2, 2, at, 20))
	pool.RouteBatch(jitterPair(rng, 0, 2, 2, 0, at, 20))
	for _, q := range randomQueries(rng, 60, 30, 30) {
		pool.Route(q)
	}
	// Both waves above answer no-route on this grid, so they build no
	// family, and a random query sees its pair once. A routable pair
	// seen twice does build: its second miss stores the family and the
	// rest of its wave composes.
	for _, q := range jitterPair(rng, 2, 0, 2, 2, at, 6) {
		pool.Route(q)
	}
	st := pool.Stats()
	if st.SkeletonHits == 0 {
		t.Fatalf("no skeleton hits: %v", st)
	}
	if st.CacheMisses() < 0 {
		t.Fatalf("partition broken: hits exceed queries (%v)", st)
	}
	if st.EngineSearches > st.CacheMisses() {
		t.Fatalf("EngineSearches %d > CacheMisses %d", st.EngineSearches, st.CacheMisses())
	}
	if st.SkelFamilies == 0 || st.SkelCapacity == 0 {
		t.Fatalf("skeleton gauges empty: %v", st)
	}
	missSum := st.Reasons.MissUncacheable + st.Reasons.MissNoExactEntry +
		st.Reasons.MissWindowFamilyAbsent + st.Reasons.MissOutsideWindows +
		st.Reasons.MissSkeletonUncertified
	if missSum != st.CacheMisses() {
		t.Fatalf("miss reasons sum %d != CacheMisses %d (%v)", missSum, st.CacheMisses(), st.Reasons)
	}
	pairs := 0
	pool.SkeletonCoverage(func(tcache.PairCoverage) { pairs++ })
	if pairs == 0 {
		t.Fatal("SkeletonCoverage empty with families stored")
	}
}

// TestSkeletonWaveCollapses: a coalesced batch wave out of one fresh
// partition pair with jittered endpoints runs two searches — the
// pair's first miss, then the miss that builds its family — and
// composes the rest, the headline saving of the point-free layer.
// Neither search is a solo decision: the wave shares through the
// family they built.
func TestSkeletonWaveCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	v := openGridVenue(t, rng, 3, 3)
	g := itgraph.MustNew(v)
	for _, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		pool := New(g, Options{
			Engine:        core.Options{Method: m},
			SharedBatch:   true,
			SkeletonCache: true,
			Workers:       4,
		})
		const n = 32
		qs := jitterPair(rng, 0, 0, 2, 2, temporal.Clock(9, 0, 0), n)
		rs, sum := pool.RouteBatchSummary(qs)
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("%v query %d: %v", m, i, r.Err)
			}
		}
		if sum.Searches != 2 || sum.SkeletonHits != n-2 {
			t.Fatalf("%v: summary = %+v, want 2 searches and %d skeleton hits", m, sum, n-2)
		}
		if got := pool.Stats().Reasons.SoloSingletonGroup; got != 0 {
			t.Fatalf("%v: solo_singleton_group = %d, want 0", m, got)
		}
		if got := sum.ExactHits + sum.WindowHits + sum.SkeletonHits + sum.Deduped +
			sum.SharedAnswers + sum.Searches - sum.SharedRuns; got != sum.Queries {
			t.Fatalf("%v: summary partition broken: %+v", m, sum)
		}
	}
}

// TestSkeletonUncertifiedProvenance: with a family stored but the
// departure near enough the slot close that the walk cannot finish
// inside it, the composition must refuse and the miss must carry
// obs.ReasonSkeletonUncertified.
func TestSkeletonUncertifiedProvenance(t *testing.T) {
	b := model.NewBuilder("uncert")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0),
		temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0))))
	b.ConnectBi(d, hall, room)
	v := b.MustBuild()
	pool := New(itgraph.MustNew(v), Options{
		Engine:        core.Options{Method: core.MethodSyn},
		CacheCapacity: -1,
		SkeletonCache: true,
	})
	// The pair's first miss only enters the pool's pair table; its
	// second builds the family.
	seed := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 5, 0), At: temporal.Clock(12, 0, 0)}
	for range 2 {
		if r := pool.RouteResult(seed); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if st := pool.Stats(); st.SkelFamilies != 1 {
		t.Fatalf("SkelFamilies = %d after two seed routes, want 1", st.SkelFamilies)
	}
	// 16:00:00 - 2s: inside the slot, but ~16 m of walk cannot finish
	// before the 16:00 checkpoint.
	late := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 4, 0), At: temporal.Clock(16, 0, 0) - 2}
	r := pool.RouteResult(late)
	if r.CacheHit {
		t.Fatalf("late query must not be served from the family (hit=%q)", r.Hit)
	}
	if r.Explain != obs.ReasonSkeletonUncertified {
		t.Fatalf("Explain = %q, want %q", r.Explain, obs.ReasonSkeletonUncertified)
	}
	if st := pool.Stats(); st.Reasons.MissSkeletonUncertified == 0 {
		t.Fatalf("MissSkeletonUncertified not tallied: %v", st.Reasons)
	}
}

// TestRaceSkeletonSwapByteIdentical extends the swap-atomicity bar to
// skeleton compositions: goroutines fire jittered same-pair queries at
// a skeleton pool while another swaps between two schedule sets;
// every response must equal a sequential answer over the pre- or
// post-swap graph — a composition from a stale family would produce a
// third outcome.
func TestRaceSkeletonSwapByteIdentical(t *testing.T) {
	b := model.NewBuilder("skel-swap-race")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 20, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(0, 10, 20, 20, 0))
	near := b.AddDoor("near", model.PublicDoor, geom.Pt(2, 10, 0), nil)
	far := b.AddDoor("far", model.PublicDoor, geom.Pt(18, 10, 0), nil)
	b.ConnectBi(near, hall, room)
	b.ConnectBi(far, hall, room)
	v := b.MustBuild()
	nearID, _ := v.DoorByName("near")
	farID, _ := v.DoorByName("far")

	closed := temporal.Schedule{} // empty = always closed
	vA, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: nil, farID: closed})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: closed, farID: nil})
	if err != nil {
		t.Fatal(err)
	}
	gA, gB := itgraph.MustNew(vA), itgraph.MustNew(vB)

	// A fixed roster of jittered endpoint pairs, each with sequential
	// oracle answers on both graphs.
	rng := rand.New(rand.NewSource(441))
	const nq = 24
	qs := make([]core.Query, nq)
	wantA := make([]*core.Path, nq)
	wantB := make([]*core.Path, nq)
	eA := core.NewEngine(gA, core.Options{Method: core.MethodAsyn})
	eB := core.NewEngine(gB, core.Options{Method: core.MethodAsyn})
	for i := range qs {
		qs[i] = core.Query{
			Source: geom.Pt(1+rng.Float64()*18, 1+rng.Float64()*8, 0),
			Target: geom.Pt(1+rng.Float64()*18, 11+rng.Float64()*8, 0),
			At:     temporal.Clock(12, 0, 0),
		}
		if wantA[i], _, err = eA.Route(qs[i]); err != nil {
			t.Fatal(err)
		}
		if wantB[i], _, err = eB.Route(qs[i]); err != nil {
			t.Fatal(err)
		}
	}

	pool := New(gA, Options{
		Engine:        core.Options{Method: core.MethodAsyn},
		CacheCapacity: -1,
		SkeletonCache: true,
	})
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
			g := gA
			if i%2 == 0 {
				g = gB
			}
			pool.SetGraph(g)
		}
	}()
	var routers sync.WaitGroup
	for w := 0; w < 6; w++ {
		routers.Add(1)
		seed := int64(600 + w)
		go func() {
			defer routers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				k := rng.Intn(nq)
				r := pool.RouteResult(qs[k])
				if r.Err != nil {
					select {
					case errc <- r.Err:
					default:
					}
					return
				}
				if !reflect.DeepEqual(r.Path, wantA[k]) && !reflect.DeepEqual(r.Path, wantB[k]) {
					select {
					case errc <- fmt.Errorf("query %d (hit=%q): path matches neither schedule set's sequential answer", k, r.Hit):
					default:
					}
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

	// Quiesced epilogue on set A: jittered repeats must now compose.
	pool.SetGraph(gA)
	before := pool.Stats().SkeletonHits
	for k := range qs {
		r := pool.RouteResult(qs[k])
		if r.Err != nil || !reflect.DeepEqual(r.Path, wantA[k]) {
			t.Fatalf("epilogue query %d (hit=%q): %v / path mismatch", k, r.Hit, r.Err)
		}
	}
	if st := pool.Stats(); st.SkeletonHits <= before {
		t.Fatalf("epilogue served no skeleton hits: %v", st)
	}
}

// TestSkeletonAdmission pins the build policy: a pool builds a pair's
// family only on a miss for a pair its hot-pair table has seen before.
// Pairs queried once cost one search each and store nothing; a pair's
// second miss builds and its third query composes; and since the table
// outlives a schedule swap, the first miss after one builds at once.
func TestSkeletonAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	v := openGridVenue(t, rng, 3, 3)
	g := itgraph.MustNew(v)
	at := temporal.Clock(9, 0, 0)
	opts := Options{Engine: core.Options{Method: core.MethodSyn}, SkeletonCache: true}

	// Every ordered pair of distinct cells once, from cell centres.
	stream := New(g, opts)
	n, found := 0, 0
	for s := 0; s < 9; s++ {
		for d := 0; d < 9; d++ {
			if s == d {
				continue
			}
			q := core.Query{
				Source: geom.Pt(float64(s%3)*10+5, float64(s/3)*10+5, 0),
				Target: geom.Pt(float64(d%3)*10+5, float64(d/3)*10+5, 0),
				At:     at,
			}
			n++
			if r := stream.RouteResult(q); r.Err == nil {
				found++
			}
		}
	}
	st := stream.Stats()
	if found == 0 {
		t.Fatal("no distinct pair was routable — the stream is vacuous")
	}
	if st.SkelFamilies != 0 || st.SkeletonHits != 0 || st.EngineSearches != int64(n) {
		t.Fatalf("distinct stream of %d pairs: families %d, skeleton hits %d, searches %d; want 0, 0, %d",
			n, st.SkelFamilies, st.SkeletonHits, st.EngineSearches, n)
	}

	pool := New(g, opts)
	qs := jitterPair(rng, 0, 0, 2, 2, at, 5)
	step := func(q core.Query, wantHit Hit, wantFamilies int64) {
		t.Helper()
		r := pool.RouteResult(q)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if st := pool.Stats(); r.Hit != wantHit || st.SkelFamilies != wantFamilies {
			t.Fatalf("hit %q with %d families, want %q with %d", r.Hit, st.SkelFamilies, wantHit, wantFamilies)
		}
	}
	step(qs[0], HitMiss, 0) // first miss: the pair enters the table
	step(qs[1], HitMiss, 1) // second miss: builds
	step(qs[2], HitSkeleton, 1)

	// The swap (door 0 stays always open) drops the store but not the
	// pair table.
	if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{0: nil}); err != nil {
		t.Fatal(err)
	}
	step(qs[3], HitMiss, 1) // first miss after the swap builds at once
	step(qs[4], HitSkeleton, 1)
}
