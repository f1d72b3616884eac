// Race-detector hammer suite: many goroutines sharing one Pool (and so
// one Graph, one SnapshotSeries and one result cache) over realistic
// venues. These tests are meaningful under `go test -race`; CI and the
// tier-1 gate should run
//
//	go test -race ./internal/service/ ./internal/core/
//
// so that the engine-pooling and snapshot-materialisation paths are
// exercised with the detector on.
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
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// hammer fires goroutines*perG random-time queries at one shared pool,
// validating every found path against the graph.
func hammer(t *testing.T, pool *Pool, queries []core.Query, goroutines, perG int) {
	t.Helper()
	g := pool.Graph()
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		seed := int64(w)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				q := queries[rng.Intn(len(queries))]
				q.At = temporal.TimeOfDay(rng.Intn(86400))
				path, _, err := pool.Route(q)
				if err != nil {
					continue // ErrNoRoute / ErrNotIndoor are regular outcomes
				}
				if verr := path.Validate(g, q); verr != nil {
					select {
					case errc <- verr:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// mallPool builds a pool over the paper's synthetic mall.
func mallPool(t *testing.T, method core.Method, opts Options) (*Pool, []core.Query) {
	t.Helper()
	m, err := synth.GenerateMall(synth.MallConfig{
		Floors: 2,
		Seed:   42,
		ATI:    synth.ATIConfig{CheckpointCount: 8, Seed: 43},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := itgraph.New(m.Venue)
	if err != nil {
		t.Fatal(err)
	}
	qis, err := synth.GenerateQueries(m, g.DM(), synth.QueryConfig{S2T: 900, Count: 8, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	var qs []core.Query
	for _, qi := range qis {
		qs = append(qs, core.Query{Source: qi.Source, Target: qi.Target})
	}
	opts.Engine.Method = method
	return New(g, opts), qs
}

func TestRaceMallPoolRoute(t *testing.T) {
	for _, method := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		t.Run(method.String(), func(t *testing.T) {
			pool, qs := mallPool(t, method, Options{})
			hammer(t, pool, qs, 8, 40)
		})
	}
}

func TestRaceMallPoolRouteNoCache(t *testing.T) {
	// With the cache disabled every query runs a real search, maximising
	// pressure on engine check-in/check-out and snapshot materialisation.
	pool, qs := mallPool(t, core.MethodAsyn, Options{CacheCapacity: -1})
	hammer(t, pool, qs, 8, 40)
}

func TestRaceHospitalPoolRoute(t *testing.T) {
	v := synth.Hospital()
	g := itgraph.MustNew(v)
	pool := New(g, Options{Engine: core.Options{Method: core.MethodAsyn}})
	// Cover the wing: probe points across every partition's centre.
	var qs []core.Query
	for p := 0; p < v.PartitionCount(); p++ {
		part := v.Partition(model.PartitionID(p))
		if part.Kind == model.OutdoorPartition {
			continue
		}
		r := part.Rect
		c := geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, part.Floor())
		qs = append(qs, core.Query{Source: c, Target: c})
	}
	// Pair centres up into OD queries.
	var odqs []core.Query
	for i := range qs {
		for j := range qs {
			if i != j {
				odqs = append(odqs, core.Query{Source: qs[i].Source, Target: qs[j].Target})
			}
		}
	}
	hammer(t, pool, odqs, 8, 60)
}

func TestRaceRouteBatchSharedPool(t *testing.T) {
	// Concurrent RouteBatch calls on one pool: batches overlap in the
	// cache and in the engine pool.
	pool, qs := mallPool(t, core.MethodAsyn, Options{Workers: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		seed := int64(100 + w)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for rep := 0; rep < 5; rep++ {
				batch := make([]core.Query, 0, 32)
				for i := 0; i < 32; i++ {
					q := qs[rng.Intn(len(qs))]
					q.At = temporal.TimeOfDay(rng.Intn(86400))
					batch = append(batch, q)
				}
				for _, r := range pool.RouteBatch(batch) {
					if r.Err == nil && r.Path == nil {
						t.Error("nil path with nil error")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRaceScheduleSwapDuringRoutes(t *testing.T) {
	// UpdateSchedules swaps the whole backend (graph + engine pool)
	// while queries are in flight; routes must keep returning coherent
	// outcomes (a path or a regular error) throughout.
	b := model.NewBuilder("swap-race")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	b.ConnectBi(d, hall, shop)
	v := b.MustBuild()
	pool := New(itgraph.MustNew(v), Options{Engine: core.Options{Method: core.MethodAsyn}})
	did, _ := v.DoorByName("d")

	open := temporal.MustSchedule(temporal.MustInterval(temporal.Clock(8, 0, 0), temporal.Clock(16, 0, 0)))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var sched temporal.Schedule
			if i%2 == 0 {
				sched = open
			}
			if err := pool.UpdateSchedules(map[model.DoorID]temporal.Schedule{did: sched}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(15, 5, 0), At: temporal.Clock(12, 0, 0)}
	var routers sync.WaitGroup
	for w := 0; w < 6; w++ {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for i := 0; i < 200; i++ {
				path, _, err := pool.Route(q)
				if err == nil && path == nil {
					t.Error("nil path with nil error during swap")
					return
				}
			}
		}()
	}
	routers.Wait()
	close(done)
	wg.Wait()
}

// TestRaceWindowPoolSweepByteIdentical is the window cache's oracle
// bar under concurrency: goroutines sweep departure times through one
// window-cache pool while another goroutine swaps schedules between
// two sets; every response must be byte-identical to a sequential
// core.Engine answer over the pre-swap or the post-swap graph (swap
// atomicity per response), with no third outcome.
func TestRaceWindowPoolSweepByteIdentical(t *testing.T) {
	// Two-door venue: schedule set A opens only the near door (short
	// path), set B only the far one (long path) — at every minute of the
	// day the two graphs give different, precomputable answers.
	b := model.NewBuilder("window-swap-race")
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
	setA := map[model.DoorID]temporal.Schedule{nearID: nil, farID: closed}
	setB := map[model.DoorID]temporal.Schedule{nearID: closed, farID: nil}
	vA, err := v.WithSchedules(setA)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := v.WithSchedules(setB)
	if err != nil {
		t.Fatal(err)
	}
	gA, gB := itgraph.MustNew(vA), itgraph.MustNew(vB)

	// Sequential oracle answers for every sweep departure on both graphs.
	const stepSec = 60
	q0 := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(2, 15, 0)}
	eA := core.NewEngine(gA, core.Options{Method: core.MethodAsyn})
	eB := core.NewEngine(gB, core.Options{Method: core.MethodAsyn})
	var wantA, wantB []*core.Path
	for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += stepSec {
		q := q0
		q.At = at
		pa, _, err := eA.Route(q)
		if err != nil {
			t.Fatalf("oracle A at %v: %v", at, err)
		}
		pb, _, err := eB.Route(q)
		if err != nil {
			t.Fatalf("oracle B at %v: %v", at, err)
		}
		wantA, wantB = append(wantA, pa), append(wantB, pb)
	}

	pool := New(gA, Options{Engine: core.Options{Method: core.MethodAsyn}, WindowCache: true})
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
		seed := int64(300 + w)
		go func() {
			defer routers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				k := rng.Intn(len(wantA))
				q := q0
				q.At = temporal.TimeOfDay(k * stepSec)
				r := pool.route(nil, q)
				if r.Err != nil {
					select {
					case errc <- r.Err:
					default:
					}
					return
				}
				if !reflect.DeepEqual(r.Path, wantA[k]) && !reflect.DeepEqual(r.Path, wantB[k]) {
					select {
					case errc <- fmt.Errorf("departure %v (hit=%q): path %+v matches neither schedule set's sequential answer", q.At, r.Hit, r.Path):
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
	if st := pool.Stats(); st.WindowHits == 0 {
		t.Logf("note: no window hits under this interleaving (%v)", st)
	}

	// Sequential epilogue: with the swaps quiesced on set A, the sweep
	// must serve window hits and stay byte-identical.
	pool.SetGraph(gA)
	before := pool.Stats().WindowHits
	for k := range wantA {
		q := q0
		q.At = temporal.TimeOfDay(k * stepSec)
		r := pool.route(nil, q)
		if r.Err != nil || !reflect.DeepEqual(r.Path, wantA[k]) {
			t.Fatalf("epilogue departure %v (hit=%q): %v / path mismatch", q.At, r.Hit, r.Err)
		}
	}
	if st := pool.Stats(); st.WindowHits <= before {
		t.Fatalf("epilogue sweep served no window hits: %v", st)
	}
}

func TestRaceCacheInvalidationDuringRoutes(t *testing.T) {
	// Backend swaps racing with queries: every swap drops the 64-entry
	// cache while routes read it, fill it and evict from it. The swaps
	// reinstall the same graph, so every answer stays checkable.
	pool, qs := mallPool(t, core.MethodSyn, Options{CacheCapacity: 64})
	g := pool.Graph()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			pool.SetGraph(g)
		}
	}()
	hammer(t, pool, qs, 6, 30)
	close(done)
	wg.Wait()
}
