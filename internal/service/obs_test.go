package service

import (
	"fmt"
	"math/rand"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/temporal"
)

// TestRouteTracedSpans checks that a traced route records the
// expected stages with the engine's SearchStats attached on a miss,
// and only a probe span on a cache hit.
func TestRouteTracedSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := gridVenue(t, rng, 4, 5)
	pool := New(itgraph.MustNew(v), Options{})
	o := obs.NewObserver(obs.ObserverOptions{})
	q := core.Query{Source: geom.Pt(5, 5, 0), Target: geom.Pt(45, 35, 0), At: temporal.TimeOfDay(10 * 3600)}

	tr := o.NewTrace()
	r := pool.RouteTraced(tr, q)
	doc := tr.Doc(obs.RequestInfo{})
	stages := map[string]int{}
	var engineAttrs any
	for _, s := range doc.Spans {
		stages[s.Stage]++
		if s.Stage == "engine" {
			engineAttrs = s.Attrs
		}
	}
	if stages["probe"] != 1 || stages["engine"] != 1 || stages["store"] != 1 {
		t.Fatalf("miss spans = %v, want probe/engine/store once each", stages)
	}
	st, ok := engineAttrs.(*core.SearchStats)
	if !ok {
		t.Fatalf("engine span attrs = %T, want *core.SearchStats", engineAttrs)
	}
	if st.Pops != r.Stats.Pops || st.Settled != r.Stats.Settled {
		t.Fatalf("attached stats %+v != result stats %+v", st, r.Stats)
	}

	tr2 := o.NewTrace()
	r2 := pool.RouteTraced(tr2, q)
	if !r2.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	doc2 := tr2.Doc(obs.RequestInfo{})
	if len(doc2.Spans) != 1 || doc2.Spans[0].Stage != "probe" {
		t.Fatalf("hit spans = %+v, want a single probe", doc2.Spans)
	}
}

// TestBatchTracedSpans checks the plan span and the shared-run engine
// span with attached stats.
func TestBatchTracedSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	v := gridVenue(t, rng, 4, 5)
	pool := New(itgraph.MustNew(v), Options{SharedBatch: true})
	o := obs.NewObserver(obs.ObserverOptions{})

	// Shared-source fan-out: same origin and departure, many targets.
	src := geom.Pt(5, 5, 0)
	qs := make([]core.Query, 0, 8)
	for i := 0; i < 8; i++ {
		qs = append(qs, core.Query{
			Source: src,
			Target: geom.Pt(5+float64(i*5), 35, 0),
			At:     temporal.TimeOfDay(10 * 3600),
		})
	}
	tr := o.NewTrace()
	rs, sum := pool.RouteBatchSummaryTraced(tr, qs)
	if len(rs) != len(qs) {
		t.Fatalf("results = %d", len(rs))
	}
	doc := tr.Doc(obs.RequestInfo{})
	stages := map[string]int{}
	for _, s := range doc.Spans {
		stages[s.Stage]++
	}
	if stages["plan"] != 1 {
		t.Fatalf("plan spans = %d, want 1 (spans %v)", stages["plan"], stages)
	}
	if stages["probe"] == 0 || stages["engine"] == 0 {
		t.Fatalf("missing probe/engine spans: %v", stages)
	}
	if sum.SharedRuns > 0 {
		for _, s := range doc.Spans {
			if s.Stage == "engine" {
				if _, ok := s.Attrs.(*core.SearchStats); !ok {
					t.Fatalf("engine span attrs = %T", s.Attrs)
				}
			}
		}
	}
}

// TestGroupSingleMissBooking checks a shared-source group whose
// fan-out the caches absorbed down to one miss: that member runs a
// dedicated search with the solo path's spans, provenance and
// counters, plus one singleton_group solo tally.
func TestGroupSingleMissBooking(t *testing.T) {
	b := model.NewBuilder("corridor")
	rooms := make([]model.PartitionID, 3)
	for i := range rooms {
		x := float64(i * 10)
		rooms[i] = b.AddPartition(fmt.Sprintf("room-%d", i), model.PublicPartition, geom.NewRect(x, 0, x+10, 10, 0))
	}
	for i := 1; i < len(rooms); i++ {
		d := b.AddDoor("", model.PublicDoor, geom.Pt(float64(i*10), 5, 0), nil)
		b.ConnectBi(d, rooms[i-1], rooms[i])
	}
	pool := New(itgraph.MustNew(b.MustBuild()), Options{SharedBatch: true})
	at := temporal.TimeOfDay(10 * 3600)
	cached := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(15, 5, 0), At: at}
	fresh := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(25, 5, 0), At: at}
	if r := pool.RouteResult(cached); r.Err != nil {
		t.Fatalf("warm route: %v", r.Err)
	}
	before := pool.Stats()

	tr := obs.NewObserver(obs.ObserverOptions{}).NewTrace()
	rs, sum := pool.RouteBatchSummaryTraced(tr, []core.Query{cached, fresh})
	if rs[0].Hit != HitExact || rs[1].Hit != HitMiss || rs[1].Explain != obs.ReasonNoExactEntry || rs[1].SharedRun {
		t.Fatalf("results = %+v / %+v, want an exact hit and a no_exact_entry solo miss", rs[0], rs[1])
	}
	if sum.ExactHits != 1 || sum.Searches != 1 || sum.SharedRuns != 0 {
		t.Fatalf("summary = %+v, want 1 exact hit and 1 search", sum)
	}
	stages := map[string]int{}
	for _, s := range tr.Doc(obs.RequestInfo{}).Spans {
		stages[s.Stage]++
	}
	if stages["plan"] != 1 || stages["probe"] != 1 || stages["engine"] != 1 || stages["store"] != 1 {
		t.Fatalf("spans = %v, want plan/probe/engine/store once each", stages)
	}

	after := pool.Stats()
	if d := after.Queries - before.Queries; d != 2 {
		t.Errorf("queries +%d, want +2", d)
	}
	if d := after.CacheHits - before.CacheHits; d != 1 {
		t.Errorf("cache_hits +%d, want +1", d)
	}
	if d := after.EngineSearches - before.EngineSearches; d != 1 {
		t.Errorf("engine_searches +%d, want +1", d)
	}
	if d := after.Reasons.MissNoExactEntry - before.Reasons.MissNoExactEntry; d != 1 {
		t.Errorf("miss_no_exact_entry +%d, want +1", d)
	}
	if d := after.Reasons.SoloSingletonGroup - before.Reasons.SoloSingletonGroup; d != 1 {
		t.Errorf("solo_singleton_group +%d, want +1", d)
	}
}

// TestNilTraceZeroAlloc pins the acceptance criterion that disabled
// tracing adds zero allocations to the pool's hot path: the traced
// entry point with a nil trace must allocate exactly as much as the
// plain one, and on a warm exact-cache hit that is zero.
func TestNilTraceZeroAlloc(t *testing.T) {
	b := model.NewBuilder("zeroalloc")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	b.ConnectBi(d, hall, shop)
	pool := New(itgraph.MustNew(b.MustBuild()), Options{})
	q := core.Query{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 5, 0), At: temporal.TimeOfDay(10 * 3600)}
	if r := pool.RouteResult(q); r.Err != nil {
		t.Fatalf("warm route: %v", r.Err)
	}

	base := testing.AllocsPerRun(500, func() { pool.RouteResult(q) })
	traced := testing.AllocsPerRun(500, func() { pool.RouteTraced(nil, q) })
	if traced > base {
		t.Fatalf("nil-trace route allocates %v allocs/op vs %v untraced", traced, base)
	}
	if base != 0 {
		t.Fatalf("warm cache-hit route allocates %v allocs/op, want 0", base)
	}
}
