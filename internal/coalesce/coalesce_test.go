// Coalescer oracle suite: concurrent solo Route calls through a
// standing coalescer must be byte-for-byte (reflect.DeepEqual)
// identical to a sequential per-query engine for every method on the
// jittered fixtures, in steady state and while racing live schedule
// swaps. Tests make flush composition deterministic by setting
// MaxGroup to the wave size and an effectively-infinite hold: the
// N-th concurrent arrival triggers the flush, so every wave is
// exactly one group regardless of scheduling.
package coalesce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

var allMethods = []core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic}

// jitterGridVenue builds a rows×cols grid with randomised door
// positions and schedules (mirroring the service oracle fixtures):
// jittered doors make every shortest path unique, which is the
// condition under which shared-execution answers are byte-identical
// to solo ones.
func jitterGridVenue(t testing.TB, rng *rand.Rand, rows, cols int) *model.Venue {
	t.Helper()
	b := model.NewBuilder(fmt.Sprintf("coalesce-grid-%dx%d", rows, cols))
	const cell = 10.0
	parts := make([][]model.PartitionID, rows)
	for r := 0; r < rows; r++ {
		parts[r] = make([]model.PartitionID, cols)
		for c := 0; c < cols; c++ {
			kind := model.PublicPartition
			corner := (r == 0 || r == rows-1) && (c == 0 || c == cols-1)
			if !corner && rng.Float64() < 0.1 {
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
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() < 0.94 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c+1)*cell, float64(r)*cell+rng.Float64()*cell, 0), randSched())
				b.ConnectBi(d, parts[r][c], parts[r][c+1])
			}
			if r+1 < rows && rng.Float64() < 0.94 {
				d := b.AddDoor("", model.PublicDoor,
					geom.Pt(float64(c)*cell+rng.Float64()*cell, float64(r+1)*cell, 0), randSched())
				b.ConnectBi(d, parts[r][c], parts[r+1][c])
			}
		}
	}
	return b.MustBuild()
}

func sameOutcome(t *testing.T, label string, gotP *core.Path, gotErr error, wantP *core.Path, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("%s: path mismatch\n got: %+v\nwant: %+v", label, gotP, wantP)
	}
}

// coalesceWave fires all queries concurrently through the coalescer
// and returns the positionally aligned results.
func coalesceWave(c *Coalescer, qs []core.Query) []service.Result {
	out := make([]service.Result, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q core.Query) {
			defer wg.Done()
			out[i] = c.Route(q)
		}(i, q)
	}
	wg.Wait()
	return out
}

// TestCoalescerMatchesSoloAllMethods is the oracle bar: one wave of
// concurrent solo requests — shared-source runs, off-key singletons,
// duplicates and an unlocatable endpoint — must reproduce the
// sequential engine answer for every entry, with strictly fewer
// engine runs than queries.
func TestCoalescerMatchesSoloAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(5101))
	v := jitterGridVenue(t, rng, 5, 5)
	g := itgraph.MustNew(v)

	hot := geom.Pt(5, 5, 0)
	at := temporal.Clock(11, 0, 0)
	var qs []core.Query
	for k := 0; k < 10; k++ { // shareable fan-out: one source, one departure
		qs = append(qs, core.Query{Source: hot, Target: geom.Pt(5+float64(k)*4, 45, 0), At: at})
	}
	qs = append(qs,
		core.Query{Source: hot, Target: geom.Pt(45, 45, 0), At: temporal.Clock(15, 0, 0)}, // off-departure
		core.Query{Source: geom.Pt(25, 25, 0), Target: geom.Pt(45, 5, 0), At: at},         // lone pair
		core.Query{Source: hot, Target: geom.Pt(5, 45, 0), At: at},                        // dup seed
		core.Query{Source: hot, Target: geom.Pt(5, 45, 0), At: at},                        // duplicate
		core.Query{Source: geom.Pt(-50, 5, 0), Target: geom.Pt(45, 45, 0), At: at},        // unlocatable
	)

	for _, method := range allMethods {
		seq := core.NewEngine(g, core.Options{Method: method})
		wantPaths := make([]*core.Path, len(qs))
		wantErrs := make([]error, len(qs))
		for i, q := range qs {
			wantPaths[i], _, wantErrs[i] = seq.Route(q)
		}

		pool := service.New(g, service.Options{
			Engine:      core.Options{Method: method},
			Workers:     4,
			SharedBatch: true,
		})
		c := New(pool, Options{Hold: time.Hour, MaxGroup: len(qs)})
		rs := coalesceWave(c, qs)
		for i := range qs {
			label := fmt.Sprintf("method %v query %d", method, i)
			sameOutcome(t, label, rs[i].Path, rs[i].Err, wantPaths[i], wantErrs[i])
			if !rs[i].Coalesced {
				t.Fatalf("%s: not marked coalesced in a %d-query flush", label, len(qs))
			}
		}

		st := c.Stats()
		if st.Queries != int64(len(qs)) || st.Flushes != 1 || st.Groups != 1 || st.Answers != int64(len(qs)) {
			t.Fatalf("method %v: coalescer stats = %+v, want one full flush of %d", method, st, len(qs))
		}
		ps := pool.Stats()
		if ps.Queries != int64(len(qs)) {
			t.Fatalf("method %v: pool queries = %d, want %d (coalesced dedup double-counted?)",
				method, ps.Queries, len(qs))
		}
		if ps.EngineSearches >= int64(len(qs)) {
			t.Fatalf("method %v: %d engine runs for %d coalesced queries — nothing shared", method, ps.EngineSearches, len(qs))
		}
		// The service partition invariant must hold with the coalescer
		// in front: hits + windows + misses + deduped == queries.
		if ps.CacheHits+ps.WindowHits+ps.CacheMisses()+ps.Deduped != ps.Queries {
			t.Fatalf("method %v: stats do not partition: %+v", method, ps)
		}
	}
}

// TestCoalescerSingletonFlush: a query with no company is flushed by
// the hold timer — answered exactly like a solo Route, not marked
// coalesced, and held no shorter than the window.
func TestCoalescerSingletonFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(5201))
	v := jitterGridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	pool := service.New(g, service.Options{Engine: core.Options{Method: core.MethodAsyn}, SharedBatch: true})
	const hold = 20 * time.Millisecond
	c := New(pool, Options{Hold: hold, MaxGroup: 64})

	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(35, 35, 0), At: temporal.Clock(12, 0, 0)}
	start := time.Now()
	res := c.Route(q)
	elapsed := time.Since(start)

	wantPath, _, wantErr := core.NewEngine(g, core.Options{Method: core.MethodAsyn}).Route(q)
	sameOutcome(t, "singleton", res.Path, res.Err, wantPath, wantErr)
	if res.Coalesced {
		t.Fatal("singleton flush must not be marked coalesced")
	}
	if elapsed < hold/2 {
		t.Fatalf("singleton answered after %v, before the %v hold window could fire", elapsed, hold)
	}
	st := c.Stats()
	if st.Flushes != 1 || st.Groups != 0 || st.Answers != 0 || st.Queries != 1 {
		t.Fatalf("singleton stats = %+v", st)
	}
	if st.HoldSumNanos <= 0 || st.MaxHoldNanos <= 0 {
		t.Fatalf("hold histogram not fed: %+v", st)
	}
}

// TestCoalescerMaxGroupCaps: the size cap flushes immediately — two
// waves of MaxGroup arrivals become exactly two coalesced groups, and
// no waiter is lost or double-answered.
func TestCoalescerMaxGroupCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5301))
	v := jitterGridVenue(t, rng, 4, 4)
	g := itgraph.MustNew(v)
	pool := service.New(g, service.Options{Engine: core.Options{Method: core.MethodAsyn}, SharedBatch: true})
	c := New(pool, Options{Hold: time.Hour, MaxGroup: 4})

	src := geom.Pt(5, 5, 0)
	var qs []core.Query
	for k := 0; k < 8; k++ {
		qs = append(qs, core.Query{Source: src, Target: geom.Pt(5+float64(k)*4, 35, 0), At: temporal.Clock(10, 0, 0)})
	}
	rs := coalesceWave(c, qs)
	seq := core.NewEngine(g, core.Options{Method: core.MethodAsyn})
	for i, q := range qs {
		wantPath, _, wantErr := seq.Route(q)
		sameOutcome(t, fmt.Sprintf("query %d", i), rs[i].Path, rs[i].Err, wantPath, wantErr)
	}
	st := c.Stats()
	if st.Flushes != 2 || st.Groups != 2 || st.Answers != 8 || st.Queries != 8 {
		t.Fatalf("stats = %+v, want exactly two capped flushes of 4", st)
	}
}

// TestCoalescerObserveHoldBuckets pins the histogram bucketing: each
// observation lands in the first bucket whose bound is >= the hold.
func TestCoalescerObserveHoldBuckets(t *testing.T) {
	c := New(nil, Options{})
	c.observeHold(500 * time.Microsecond)  // <= 1ms: bucket 0
	c.observeHold(1500 * time.Microsecond) // <= 2ms: bucket 1
	c.observeHold(2 * time.Millisecond)    // boundary is inclusive: bucket 1
	c.observeHold(time.Second)             // overflow bucket
	c.observeHold(-time.Millisecond)       // clamped to 0: bucket 0
	st := c.Stats()
	want := []int64{2, 2, 0, 0, 0, 0, 1}
	if !slices.Equal(st.Hold.Counts, want) || !slices.Equal(st.Hold.Bounds, HoldBucketBounds[:]) {
		t.Fatalf("buckets = %v over %v, want %v over %v", st.Hold.Counts, st.Hold.Bounds, want, HoldBucketBounds)
	}
	if st.MaxHoldNanos != int64(time.Second) {
		t.Fatalf("max hold = %d, want 1s", st.MaxHoldNanos)
	}
	if wantSum := int64(time.Second + 4*time.Millisecond); st.HoldSumNanos != wantSum {
		t.Fatalf("hold sum = %d ns, want %d", st.HoldSumNanos, wantSum)
	}
}

// TestCoalescerRacingUpdateSchedules: a held queue racing live
// schedule swaps must drain old-or-new atomically. Every wave is one
// flush (MaxGroup = wave size), one flush is one RouteBatchSummary
// call pinning one pool backend, so the whole wave's answers must
// reflect schedule set A in full or set B in full — never a mix. Run
// under -race. (SetGraph is the exact swap entry point
// UpdateSchedules delegates to; using prebuilt graphs keeps the
// expected answers precomputable.)
func TestCoalescerRacingUpdateSchedules(t *testing.T) {
	// Two-door venue: set A opens only the near door, set B only the
	// far one, so every query's answer differs between the two sets.
	b := model.NewBuilder("coalesce-swap-race")
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

	src := geom.Pt(3, 5, 0)
	var qs []core.Query
	for k := 0; k < 8; k++ {
		qs = append(qs, core.Query{Source: src, Target: geom.Pt(2+float64(k)*2, 15, 0), At: temporal.Clock(9, 0, 0)})
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

	pool := service.New(gA, service.Options{
		Engine:      core.Options{Method: core.MethodAsyn},
		Workers:     4,
		SharedBatch: true,
	})
	c := New(pool, Options{Hold: time.Hour, MaxGroup: len(qs)})

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

	for rep := 0; rep < 50; rep++ {
		rs := coalesceWave(c, qs)
		matchesA, matchesB := true, true
		for i, r := range rs {
			if r.Err != nil {
				t.Fatalf("rep %d query %d: %v", rep, i, r.Err)
			}
			if !reflect.DeepEqual(r.Path, wantA[i]) {
				matchesA = false
			}
			if !reflect.DeepEqual(r.Path, wantB[i]) {
				matchesB = false
			}
		}
		if !matchesA && !matchesB {
			t.Fatalf("rep %d: coalesced flush matches neither schedule set in full — the held queue drained a mix", rep)
		}
	}
	close(done)
	swapper.Wait()

	// Quiesced epilogue on set A: sharing engages and stays identical.
	pool.SetGraph(gA)
	rs := coalesceWave(c, qs)
	for i, r := range rs {
		if r.Err != nil || !reflect.DeepEqual(r.Path, wantA[i]) {
			t.Fatalf("epilogue query %d: err=%v, path mismatch", i, r.Err)
		}
	}
	if st := c.Stats(); st.Groups < 51 {
		t.Fatalf("coalesced groups = %d, want one per wave", st.Groups)
	}
}
