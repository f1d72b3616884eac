package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

// foundQuery returns the first query e answers with at least one door,
// with its endpoint partitions.
func foundQuery(t testing.TB, e *Engine, qs []Query) (Query, model.PartitionID, model.PartitionID) {
	for _, q := range qs {
		if p, _, err := e.Route(q); err == nil && p.Hops() > 0 {
			sp, _ := e.v.Locate(q.Source)
			tp, _ := e.v.Locate(q.Target)
			return q, sp, tp
		}
	}
	t.Fatal("no query answered with a door")
	return Query{}, 0, 0
}

// searchAllocs checks the kernel's allocation contract on a warm
// engine: Route and a waiting route allocate only the returned Path and
// its three slices, and BuildSkeletonFamily only the family, its chain
// list and each chain (the Skeleton and its three slices).
func searchAllocs(t testing.TB, e *Engine, q Query, sp, tp model.PartitionID) {
	if n := testing.AllocsPerRun(20, func() { _, _, _ = e.Route(q) }); n != 4 {
		t.Errorf("%s: Route allocates %v times, want 4", e.MethodName(), n)
	}
	w := NewWaitingRouter(e.g)
	if p, err := w.Route(q); err != nil || p.Hops() < 2 {
		t.Fatalf("waiting route of the found query: %v, %v; want two doors or more", p, err)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = w.Route(q) }); n != 4 {
		t.Errorf("WaitingRouter.Route allocates %v times, want 4", n)
	}
	fam := e.BuildSkeletonFamily(sp, tp, q.At)
	if fam == nil {
		t.Fatalf("%s: no skeleton family for a found route", e.MethodName())
	}
	want := float64(2 + 4*len(fam.Chains))
	if n := testing.AllocsPerRun(5, func() { e.BuildSkeletonFamily(sp, tp, q.At) }); n != want {
		t.Errorf("%s: BuildSkeletonFamily allocates %v times, want %v", e.MethodName(), n, want)
	}
}

func TestSearchAllocs(t *testing.T) {
	g, qs := mallQueries(t, 20)
	for _, m := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
		e := NewEngine(g, Options{Method: m})
		q, sp, tp := foundQuery(t, e, qs)
		searchAllocs(t, e, q, sp, tp)
	}
}

// TestEpochWrapReuse drives one engine through a stamp-epoch wrap with
// the stamps of epochs 1..3 left behind by the same queries it then
// repeats, interleaving every kernel caller; each result must equal a
// fresh engine's.
func TestEpochWrapReuse(t *testing.T) {
	g, qs := mallQueries(t, 12)
	g.Snapshots().BuildAll() // fresh engines must not differ in snapshot builds
	v := g.Venue()
	for _, m := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
		opts := Options{Method: m}
		e := NewEngine(g, opts)
		for _, q := range qs[:3] { // leave stamps of epochs 1..3 behind
			_, _, _ = e.Route(q)
		}
		e.st.epoch = math.MaxUint32 // the next search wraps to epoch 1
		same := func(what string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v %s after the epoch wrap differs from a fresh engine's", m, what)
			}
		}
		for i, q := range qs {
			p, st, err := e.Route(q)
			fp, fst, ferr := NewEngine(g, opts).Route(q)
			same("Route", []any{p, st, err}, []any{fp, fst, ferr})

			tgts := []geom.Point{q.Target, qs[(i+1)%len(qs)].Target, q.Source}
			same("RouteMany", e.RouteMany(q.Source, tgts, q.At, q.Speed),
				NewEngine(g, opts).RouteMany(q.Source, tgts, q.At, q.Speed))
			srcs := []geom.Point{q.Source, qs[(i+2)%len(qs)].Source}
			same("RouteManyTo", e.RouteManyTo(srcs, q.Target, q.At, q.Speed),
				NewEngine(g, opts).RouteManyTo(srcs, q.Target, q.At, q.Speed))

			sp, _ := v.Locate(q.Source)
			tp, _ := v.Locate(q.Target)
			same("BuildSkeletonFamily", e.BuildSkeletonFamily(sp, tp, q.At),
				NewEngine(g, opts).BuildSkeletonFamily(sp, tp, q.At))

			// The waiting search ignores the method's checker, so it
			// runs on every method's engine.
			wp, werr := e.routeWaiting(q)
			fwp, fwerr := NewWaitingRouter(g).Route(q)
			same("waiting Route", []any{wp, werr}, []any{fwp, fwerr})
			if m == MethodSyn {
				dm, err := e.singleSource(q.Source, q.At, q.Speed)
				fdm, ferr := SingleSource(g, q.Source, q.At, q.Speed)
				same("SingleSource", []any{dm, err}, []any{fdm, ferr})
			}
		}
		if e.st.epoch > 1000 {
			t.Fatalf("%v: epoch %d, the wrap did not happen", m, e.st.epoch)
		}
	}
}

// TestGoalBoundMovesNoAnswer: Route in the goal-directed order returns
// exactly the path and error of Route in Algorithm 1's order
// (NoGoalBound), for every method, on the mall and on both grid
// generators. On the midpoint-door grid every third query runs between
// cell centres, where symmetric detours tie exactly.
func TestGoalBoundMovesNoAnswer(t *testing.T) {
	found := 0
	check := func(label string, g *itgraph.Graph, qs []Query) {
		t.Helper()
		for _, m := range manyMethods {
			goal := NewEngine(g, Options{Method: m})
			plain := NewEngine(g, Options{Method: m, NoGoalBound: true})
			for i, q := range qs {
				p, _, err := goal.Route(q)
				wp, _, werr := plain.Route(q)
				if !reflect.DeepEqual(p, wp) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s %v query %d: goal-directed %v, %v; plain %v, %v", label, m, i, p, err, wp, werr)
				}
				if err == nil {
					found++
				}
			}
		}
	}
	g, qs := mallQueries(t, 3000)
	check("mall", g, qs)

	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 150; trial++ {
		rows, cols := 3+rng.Intn(4), 3+rng.Intn(4)
		w, h := float64(cols)*10, float64(rows)*10
		qs = qs[:0]
		for i := 0; i < 20; i++ {
			q := Query{
				Source: geom.Pt(rng.Float64()*w, rng.Float64()*h, 0),
				Target: geom.Pt(rng.Float64()*w, rng.Float64()*h, 0),
				At:     temporal.TimeOfDay(rng.Intn(86400)),
			}
			if i%3 == 0 {
				q.Source = geom.Pt(float64(rng.Intn(cols))*10+5, float64(rng.Intn(rows))*10+5, 0)
				q.Target = geom.Pt(float64(rng.Intn(cols))*10+5, float64(rng.Intn(rows))*10+5, 0)
			}
			qs = append(qs, q)
		}
		check(fmt.Sprintf("midpoint grid %d", trial), itgraph.MustNew(randomVenue(t, rng, rows, cols)), qs)
		check(fmt.Sprintf("jittered grid %d", trial), itgraph.MustNew(manyGridVenue(t, rng, rows, cols)), qs)
	}
	if found < 9000 {
		t.Fatalf("only %d of 27,000 answers found a path", found)
	}
}

// meanPops is the mean heap pops of e's Route over qs.
func meanPops(e *Engine, qs []Query) float64 {
	pops := 0
	for _, q := range qs {
		_, st, _ := e.Route(q)
		pops += st.Pops
	}
	return float64(pops) / float64(len(qs))
}

// BenchmarkEngineSearch times one Route plus one skeleton-family build
// per op on the mall preset, the work an uncached answer costs. It
// self-checks the allocation contract of the search kernel first (see
// searchAllocs), and that Route's goal bound at least halves its mean
// heap pops against Algorithm 1's order on 200 mall queries, so a
// regression of either fails the bench run.
func BenchmarkEngineSearch(b *testing.B) {
	g, qs := mallQueries(b, 200)
	g.Snapshots().BuildAll()
	for _, m := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
		b.Run(m.String(), func(b *testing.B) {
			e := NewEngine(g, Options{Method: m})
			q, sp, tp := foundQuery(b, e, qs)
			searchAllocs(b, e, q, sp, tp)
			goal, plain := meanPops(e, qs), meanPops(NewEngine(g, Options{Method: m, NoGoalBound: true}), qs)
			if goal > plain/2 {
				b.Fatalf("%v: Route pops %.1f per search, Algorithm 1's order %.1f; want at most half", m, goal, plain)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = e.Route(q)
				e.BuildSkeletonFamily(sp, tp, q.At)
			}
			b.ReportMetric(goal, "route-pops")
			b.ReportMetric(plain, "alg1-route-pops")
		})
	}
}
