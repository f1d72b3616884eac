// Shared-execution oracle suite: RouteBatch with Options.SharedBatch on
// must be byte-for-byte (reflect.DeepEqual) identical to the sequential
// per-query engine for every method on adversarial fixtures, both in
// steady state and while racing live schedule swaps.
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

// jitterGridVenue is gridVenue with randomised door positions (and a
// few one-way doors): in the midpoint-door grid, symmetric detours have
// float-exactly equal lengths, and under such ties a shared run may
// legitimately return a different — equally shortest — door sequence
// than the solo engine (see the shared-execution section of doc.go).
// Jittering the doors makes every shortest path unique, which is the
// condition under which shared answers are byte-identical; it is also
// the generic case for real venues.
func jitterGridVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("jitter-grid-%dx%d", rows, cols))
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
		if rng.Intn(3) == 0 {
			return nil // always open
		}
		o := temporal.TimeOfDay(rng.Intn(14) * 3600)
		return temporal.MustSchedule(temporal.MustInterval(o, o+temporal.TimeOfDay(3600*(2+rng.Intn(10)))))
	}
	connect := func(d model.DoorID, a, p model.PartitionID) {
		if rng.Float64() < 0.12 {
			b.ConnectOneWay(d, a, p)
			return
		}
		b.ConnectBi(d, a, p)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c+1)*cell, float64(r)*cell+rng.Float64()*cell, 0), randSched())
				connect(d, parts[r][c], parts[r][c+1])
			}
			if r+1 < rows && rng.Float64() < 0.92 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c)*cell+rng.Float64()*cell, float64(r+1)*cell, 0), randSched())
				connect(d, parts[r][c], parts[r+1][c])
			}
		}
	}
	return b.MustBuild()
}

// sharedWorkload builds a batch with genuine sharing structure: a few
// hot sources fanning out to many targets, a few hot targets fanned
// into from many sources, duplicates, and a sprinkle of unlocatable
// endpoints — the many-queries-few-endpoints shape SharedBatch exists
// for.
func sharedWorkload(rng *rand.Rand, w, h float64, n int) []core.Query {
	pt := func() geom.Point { return geom.Pt(rng.Float64()*w, rng.Float64()*h, 0) }
	hotSrcs := []geom.Point{pt(), pt(), pt()}
	hotTgts := []geom.Point{pt(), pt()}
	times := []temporal.TimeOfDay{
		temporal.TimeOfDay(rng.Intn(86400)),
		temporal.TimeOfDay(rng.Intn(86400)),
	}
	qs := make([]core.Query, 0, n)
	for i := 0; i < n; i++ {
		q := core.Query{At: times[rng.Intn(len(times))]}
		switch rng.Intn(4) {
		case 0: // shared source
			q.Source = hotSrcs[rng.Intn(len(hotSrcs))]
			q.Target = pt()
		case 1: // shared target
			q.Source = pt()
			q.Target = hotTgts[rng.Intn(len(hotTgts))]
		case 2: // fully random
			q.Source, q.Target = pt(), pt()
		default: // duplicate of an earlier query
			if len(qs) > 0 {
				q = qs[rng.Intn(len(qs))]
			} else {
				q.Source, q.Target = pt(), pt()
			}
		}
		if rng.Float64() < 0.04 {
			q.Source.X = -50 // outside every partition
		}
		qs = append(qs, q)
	}
	return qs
}

// TestSharedBatchMatchesSequentialAllMethods is the oracle bar of the
// shared planner: on two fixtures, for syn/asyn/static, a SharedBatch
// RouteBatch must reproduce the sequential engine answer for every
// entry, byte for byte, and must actually have shared work.
func TestSharedBatchMatchesSequentialAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(2101))
	for trial, dims := range [][2]int{{4, 5}, {6, 6}} {
		v := jitterGridVenue(t, rng, dims[0], dims[1])
		g := itgraph.MustNew(v)
		qs := sharedWorkload(rng, float64(dims[1])*10, float64(dims[0])*10, 120)
		for _, method := range allMethods {
			seq := core.NewEngine(g, core.Options{Method: method})
			wantPaths := make([]*core.Path, len(qs))
			wantErrs := make([]error, len(qs))
			for i, q := range qs {
				wantPaths[i], _, wantErrs[i] = seq.Route(q)
			}
			for _, workers := range []int{1, 4} {
				pool := New(g, Options{
					Engine:      core.Options{Method: method},
					Workers:     workers,
					SharedBatch: true,
				})
				rs, sum := pool.RouteBatchSummary(qs)
				for i := range qs {
					label := fmt.Sprintf("trial %d method %v workers %d query %d", trial, method, workers, i)
					sameOutcome(t, label, rs[i].Path, rs[i].Err, wantPaths[i], wantErrs[i])
				}
				if sum.SharedRuns == 0 || sum.SharedAnswers < 2*sum.SharedRuns {
					t.Fatalf("trial %d method %v workers %d: no real sharing: %+v", trial, method, workers, sum)
				}
				if sum.Queries != len(qs) ||
					sum.ExactHits+sum.WindowHits+sum.Deduped+sum.SharedAnswers+(sum.Searches-sum.SharedRuns) != sum.Queries {
					t.Fatalf("trial %d method %v workers %d: summary does not add up: %+v", trial, method, workers, sum)
				}
				// The whole point: strictly fewer engine runs than entries.
				st := pool.Stats()
				if st.EngineSearches >= st.CacheMisses() {
					t.Fatalf("trial %d method %v workers %d: shared batch saved nothing: %v", trial, method, workers, st)
				}
				// Replay: served from caches now, still byte-identical.
				for i, r := range pool.RouteBatch(qs) {
					label := fmt.Sprintf("trial %d method %v workers %d replay %d", trial, method, workers, i)
					sameOutcome(t, label, r.Path, r.Err, wantPaths[i], wantErrs[i])
				}
			}
		}
	}
}

// TestSharedBatchComposesWithWindowCache: with both the planner and the
// validity-window cache on, a departure sweep over a multi-target fan
// stays byte-identical to the sequential engine and serves a mix of
// shared answers and window hits.
func TestSharedBatchComposesWithWindowCache(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	v := jitterGridVenue(t, rng, 4, 5)
	g := itgraph.MustNew(v)
	src := geom.Pt(rng.Float64()*50, rng.Float64()*40, 0)
	var targets []geom.Point
	for i := 0; i < 6; i++ {
		targets = append(targets, geom.Pt(rng.Float64()*50, rng.Float64()*40, 0))
	}
	var qs []core.Query
	for min := 0; min < 24*60; min += 20 {
		for _, tgt := range targets {
			qs = append(qs, core.Query{Source: src, Target: tgt, At: temporal.TimeOfDay(min * 60)})
		}
	}
	pool := New(g, Options{
		Engine:      core.Options{Method: core.MethodAsyn},
		Workers:     4,
		SharedBatch: true,
		WindowCache: true,
	})
	seq := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	rs, sum := pool.RouteBatchSummary(qs)
	for i, q := range qs {
		wantPath, _, wantErr := seq.Route(q)
		sameOutcome(t, fmt.Sprintf("query %d at %v", i, q.At), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	if sum.SharedRuns == 0 {
		t.Fatalf("multi-target sweep shared nothing: %+v", sum)
	}
	if sum.Searches >= len(qs)/2 {
		t.Fatalf("sweep ran %d searches for %d queries: %+v", sum.Searches, len(qs), sum)
	}
}

// TestSharedBatchStaticMergesDepartures: the static method's planner
// key drops the departure, so a single-OD day sweep (the degenerate
// shared-source case) collapses into ONE engine run, with every other
// departure's answer restated by the bit-identical rebase.
func TestSharedBatchStaticMergesDepartures(t *testing.T) {
	rng := rand.New(rand.NewSource(2301))
	v := jitterGridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	src := geom.Pt(5, 5, 0)
	tgt := geom.Pt(35, 35, 0)
	var qs []core.Query
	for min := 0; min < 24*60; min += 10 {
		qs = append(qs, core.Query{Source: src, Target: tgt, At: temporal.TimeOfDay(min * 60)})
	}
	pool := New(g, Options{
		Engine:        core.Options{Method: core.MethodStatic},
		Workers:       4,
		SharedBatch:   true,
		CacheCapacity: -1, // isolate the planner from the exact cache
	})
	seq := core.NewEngine(g, core.Options{Method: core.MethodStatic})
	rs, sum := pool.RouteBatchSummary(qs)
	for i, q := range qs {
		wantPath, _, wantErr := seq.Route(q)
		sameOutcome(t, fmt.Sprintf("minute %d", i), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	if sum.Searches != 1 || sum.SharedRuns != 1 || sum.SharedAnswers != len(qs) {
		t.Fatalf("static sweep should be one shared run: %+v", sum)
	}
}

// TestSharedBatchRacingUpdateSchedules: shared batches racing live
// schedule swaps must stay atomic per batch — every batch's full result
// set is byte-identical to the sequential engine over the pre-swap or
// the post-swap graph, never a mix and never a third outcome.
func TestSharedBatchRacingUpdateSchedules(t *testing.T) {
	// Deterministic two-door venue (as the window-cache race test): set
	// A opens only the near door, set B only the far one, so at every
	// departure the two graphs give different, precomputable answers.
	b := model.NewBuilder("shared-swap-race")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 20, 10, 0))
	room := b.AddPartition("room", model.PublicPartition, geom.NewRect(0, 10, 20, 20, 0))
	near := b.AddDoor("near", model.PublicDoor, geom.Pt(2, 10, 0), nil)
	far := b.AddDoor("far", model.PublicDoor, geom.Pt(18, 10, 0), nil)
	b.ConnectBi(near, hall, room)
	b.ConnectBi(far, hall, room)
	v := b.MustBuild()
	nearID, _ := v.DoorByName("near")
	farID, _ := v.DoorByName("far")
	closed := temporal.Schedule{}
	vA, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: nil, farID: closed})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := v.WithSchedules(map[model.DoorID]temporal.Schedule{nearID: closed, farID: nil})
	if err != nil {
		t.Fatal(err)
	}
	gA, gB := itgraph.MustNew(vA), itgraph.MustNew(vB)

	// One shared source in the hall fanning out to targets in the room
	// at a few departures — several shared-source groups per batch.
	src := geom.Pt(3, 5, 0)
	var qs []core.Query
	for k := 0; k < 8; k++ {
		for d := 0; d < 3; d++ {
			qs = append(qs, core.Query{
				Source: src,
				Target: geom.Pt(2+float64(k)*2, 15, 0),
				At:     temporal.Clock(9+d, 0, 0),
			})
		}
	}
	answersOn := func(g *itgraph.Graph) []*core.Path {
		e := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
		out := make([]*core.Path, len(qs))
		for i, q := range qs {
			p, _, err := e.Route(q)
			if err != nil {
				t.Fatalf("oracle on %v: %v", q, err)
			}
			out[i] = p
		}
		return out
	}
	wantA, wantB := answersOn(gA), answersOn(gB)

	pool := New(gA, Options{
		Engine:      core.Options{Method: core.MethodAsyn},
		Workers:     4,
		SharedBatch: true,
		WindowCache: true,
	})
	done := make(chan struct{})
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
			if i%2 == 0 {
				pool.SetGraph(gB)
			} else {
				pool.SetGraph(gA)
			}
		}
	}()

	errc := make(chan error, 8)
	var routers sync.WaitGroup
	for w := 0; w < 4; w++ {
		routers.Add(1)
		go func() {
			defer routers.Done()
			for rep := 0; rep < 60; rep++ {
				rs := pool.RouteBatch(qs)
				matchesA, matchesB := true, true
				for i, r := range rs {
					if r.Err != nil {
						select {
						case errc <- fmt.Errorf("rep %d query %d: %v", rep, i, r.Err):
						default:
						}
						return
					}
					if !reflect.DeepEqual(r.Path, wantA[i]) {
						matchesA = false
					}
					if !reflect.DeepEqual(r.Path, wantB[i]) {
						matchesB = false
					}
				}
				if !matchesA && !matchesB {
					select {
					case errc <- fmt.Errorf("rep %d: batch matches neither schedule set in full", rep):
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

	// Quiesced epilogue on set A: sharing engages and stays identical.
	pool.SetGraph(gA)
	rs, sum := pool.RouteBatchSummary(qs)
	for i, r := range rs {
		if r.Err != nil || !reflect.DeepEqual(r.Path, wantA[i]) {
			t.Fatalf("epilogue query %d: err=%v, path mismatch", i, r.Err)
		}
	}
	if sum.SharedRuns == 0 {
		t.Fatalf("epilogue batch shared nothing: %+v", sum)
	}
}

// TestSharedBatchStairwellTargetGoesSolo: a stairwell's doors span
// floors, so a shared run cannot expand through a stairwell target's
// partition. On the mall preset, a shared-source batch holding one
// stairwell target answers it with one solo search, booked as
// private_partition, and every answer equals solo Route.
func TestSharedBatchStairwellTargetGoesSolo(t *testing.T) {
	m, err := synth.GenerateMall(synth.MallConfig{Seed: 42, ATI: synth.ATIConfig{CheckpointCount: 8, Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	v := m.Venue
	g := itgraph.MustNew(v)
	src, stair := geom.Pt(795.98, 668.84, 3), geom.Pt(973.27, 629.29, 2)
	if p, ok := v.Locate(stair); !ok || v.Partition(p).Kind != model.StairwellPartition {
		t.Fatalf("%v does not locate to a stairwell", stair)
	}
	at := temporal.Clock(14, 47, 22)
	qs := []core.Query{{Source: src, Target: stair, At: at}}
	for p := 0; len(qs) < 5; p += 37 {
		part := v.Partition(model.PartitionID(p))
		if part.Kind != model.PublicPartition {
			continue
		}
		r := part.Rect
		qs = append(qs, core.Query{Source: src, Target: geom.Pt((r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2, r.Floor), At: at})
	}
	pool := New(g, Options{SharedBatch: true, CacheCapacity: -1})
	rs, sum := pool.RouteBatchSummary(qs)
	seq := core.NewEngine(g, core.Options{})
	for i, q := range qs {
		wantPath, _, wantErr := seq.Route(q)
		if i == 0 && wantErr != nil {
			t.Fatalf("solo Route finds no path to the stairwell target: %v", wantErr)
		}
		sameOutcome(t, fmt.Sprintf("target %d", i), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	if sum.Searches != 2 || sum.SharedRuns != 1 || sum.SharedAnswers != len(qs)-1 {
		t.Fatalf("summary = %+v, want one shared run for the public targets and one solo search", sum)
	}
	if n := pool.Stats().Reasons.SoloPrivatePartition; n != 1 {
		t.Fatalf("solo_private_partition = %d, want 1", n)
	}
}
