package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// The golden digests pin every answer, every SearchStats field and
// every skeleton chain of goldenRun to what the map-based engine
// produced before the flat-array search kernel replaced it. The
// perfbench answer check compares served answers with the same build's
// Engine.Route, so it cannot catch a change in Route itself; these
// digests can. They are split so that a change of search order can be
// shown to move no answer:
//
//   - goldenAnswerDigest hashes the answers: every error, every Path
//     field, the Solo flags, the Found, PathHops and PathLength stats
//     and every family chain;
//   - goldenCounterDigest hashes the other SearchStats fields, the
//     effort counters.
//
// A change that moves any door, arrival, length or chain changes the
// answer digest; a deliberate one, such as a new tie-break rule, must
// recompute it. A change that only moves counters recomputes the
// counter digest alone.
const (
	goldenAnswerDigest  = "9b5cadff574c1a33e521250ed2515dda01705230049a2946833c2dad59778071"
	goldenCounterDigest = "3978be8b9a4b74dcfad9fe96e472604f69978632cc1c38d260d95e23ead5cab6"
)

// TestGoldenDigest routes a fixed query set over the itspqd "mall"
// preset through Route, RouteMany, RouteManyTo and BuildSkeletonFamily
// with one engine per method reused across every call, and compares
// the hashes of all answers and all counters with the golden digests.
func TestGoldenDigest(t *testing.T) {
	answers, counters := goldenRun(t)
	if answers != goldenAnswerDigest {
		t.Errorf("golden answer digest = %s, want %s", answers, goldenAnswerDigest)
	}
	if counters != goldenCounterDigest {
		t.Errorf("golden counter digest = %s, want %s", counters, goldenCounterDigest)
	}
}

// mallQueries builds the itspqd "mall" preset graph (the synth config
// of server.PresetVenue, which this package cannot import) and a fixed
// set of n queries between random interior points, at random
// departures across the day; every seventh walks at 1.1 m/s and query
// 5 departs a day late.
func mallQueries(t testing.TB, n int) (*itgraph.Graph, []Query) {
	m, err := synth.GenerateMall(synth.MallConfig{Seed: 42, ATI: synth.ATIConfig{CheckpointCount: 8, Seed: 43}})
	if err != nil {
		t.Fatal(err)
	}
	v := m.Venue
	rng := rand.New(rand.NewSource(14))
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Source: indoorPoint(rng, v), Target: indoorPoint(rng, v),
			At: temporal.TimeOfDay(rng.Float64() * float64(temporal.DaySeconds))}
		if i%7 == 3 {
			qs[i].Speed = 1.1
		}
	}
	if n > 5 {
		qs[5].At += temporal.DaySeconds // departures past midnight wrap
	}
	return itgraph.MustNew(v), qs
}

// indoorPoint draws a random point inside a random non-outdoor
// partition of v that locates to that partition.
func indoorPoint(rng *rand.Rand, v *model.Venue) geom.Point {
	for {
		p := v.Partition(model.PartitionID(rng.Intn(v.PartitionCount())))
		if p.Kind == model.OutdoorPartition || p.Rect.Area() <= 0 {
			continue
		}
		pt := skelInterior(rng, p.Rect)
		if at, ok := v.Locate(pt); ok && at == p.ID {
			return pt
		}
	}
}

func goldenRun(t *testing.T) (answers, counters string) {
	g, qs := mallQueries(t, 40)
	v := g.Venue()
	ha, hc := sha256.New(), sha256.New()
	outcome := func(p *Path, st SearchStats, err error) {
		goldenPath(ha, p, err)
		goldenStats(ha, hc, st)
	}
	for _, method := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
		e := NewEngine(g, Options{Method: method})
		for _, q := range qs {
			p, st, err := e.Route(q)
			outcome(p, st, err)
			if err != nil {
				continue
			}
			sp, _ := v.Locate(q.Source)
			tp, _ := v.Locate(q.Target)
			goldenFamily(ha, e.BuildSkeletonFamily(sp, tp, q.At))
		}
		for k := 0; k+5 <= len(qs); k += 5 {
			src := qs[k]
			tgts := []geom.Point{src.Target}
			for _, q := range qs[k+1 : k+5] {
				tgts = append(tgts, q.Target)
			}
			tgts = append(tgts, src.Target) // a duplicate target
			for _, o := range e.RouteMany(src.Source, tgts, src.At, src.Speed) {
				fmt.Fprintf(ha, "solo=%v;", o.Solo)
				outcome(o.Path, o.Stats, o.Err)
			}
			if method != MethodStatic {
				continue
			}
			srcs := []geom.Point{src.Source}
			for _, q := range qs[k+1 : k+5] {
				srcs = append(srcs, q.Source)
			}
			for _, o := range e.RouteManyTo(srcs, src.Target, src.At, src.Speed) {
				fmt.Fprintf(ha, "solo=%v;", o.Solo)
				outcome(o.Path, o.Stats, o.Err)
			}
		}
	}
	return hex.EncodeToString(ha.Sum(nil)), hex.EncodeToString(hc.Sum(nil))
}

// goldenPath hashes one answer: the error and, when found, every path
// field at float64 bit precision.
func goldenPath(h hash.Hash, p *Path, err error) {
	fmt.Fprintf(h, "err=%v;", err)
	if p == nil {
		return
	}
	fmt.Fprintf(h, "doors=%v;parts=%v;len=%x;tgt=%x;dep=%x;wait=%x;", p.Doors, p.Partitions,
		math.Float64bits(p.Length), math.Float64bits(float64(p.ArrivalAtTgt)),
		math.Float64bits(float64(p.DepartedAt)), math.Float64bits(float64(p.TotalWait)))
	for _, a := range p.Arrivals {
		fmt.Fprintf(h, "%x,", math.Float64bits(float64(a)))
	}
}

// goldenStats hashes one outcome's stats: the answer fields into ha,
// every other field — the effort counters — into hc.
func goldenStats(ha, hc hash.Hash, st SearchStats) {
	fmt.Fprintf(ha, "found=%v;hops=%d;plen=%x;", st.Found, st.PathHops, math.Float64bits(st.PathLength))
	st.Found, st.PathHops, st.PathLength = false, 0, 0
	fmt.Fprintf(hc, "stats=%+v;", st)
}

// goldenFamily hashes a skeleton family: key, window and every chain.
func goldenFamily(h hash.Hash, fam *SkeletonFamily) {
	if fam == nil {
		fmt.Fprint(h, "fam=nil;")
		return
	}
	fmt.Fprintf(h, "fam=%d,%d,%d,%x,%x;", fam.Src, fam.Tgt, fam.Slot,
		math.Float64bits(float64(fam.Window.Open)), math.Float64bits(float64(fam.Window.Close)))
	for _, sk := range fam.Chains {
		fmt.Fprintf(h, "chain=%d,%d,%v,%v;", sk.Entry, sk.Anchor, sk.Doors, sk.Partitions)
		for _, l := range sk.Legs {
			fmt.Fprintf(h, "%x,", math.Float64bits(l))
		}
	}
}

// goldenExtensionsDigest pins every answer of the two searches beside
// ITSPQ — the earliest-arrival WaitingRouter and SingleSource — over
// goldenExtensionsRun's inputs, at float64 bit precision. A search
// change that moves any crossing, wait, length or distance changes it.
const goldenExtensionsDigest = "497cfacff0eac1631098a3123be456945055c10b2df647e2777a1f093dd60eaf"

// TestGoldenExtensionsDigest routes waiting queries and computes
// distance maps over the mall preset, the hospital preset at departures
// across the day and random grid venues, and compares the hash of all
// results with goldenExtensionsDigest.
func TestGoldenExtensionsDigest(t *testing.T) {
	if got := goldenExtensionsRun(t); got != goldenExtensionsDigest {
		t.Errorf("golden extensions digest = %s, want %s", got, goldenExtensionsDigest)
	}
}

func goldenExtensionsRun(t *testing.T) string {
	h := sha256.New()
	run := func(g *itgraph.Graph, qs []Query, sources int) {
		w := NewWaitingRouter(g)
		for _, q := range qs {
			p, err := w.Route(q)
			goldenPath(h, p, err)
		}
		for _, q := range qs[:sources] {
			dm, err := SingleSource(g, q.Source, q.At, q.Speed)
			goldenDistances(h, dm, err)
		}
	}

	g, qs := mallQueries(t, 100)
	run(g, qs, 60)

	// The hospital's wards admit visitors only 10:00–12:00 and
	// 14:00–18:00, so many of these routes wait at a ward door.
	hosp := synth.Hospital()
	rng := rand.New(rand.NewSource(27))
	qs = qs[:0]
	for pair := 0; pair < 16; pair++ {
		src, tgt := indoorPoint(rng, hosp), indoorPoint(rng, hosp)
		for at := temporal.TimeOfDay(0); at < temporal.DaySeconds; at += 5400 {
			qs = append(qs, Query{Source: src, Target: tgt, At: at + temporal.TimeOfDay(rng.Intn(600))})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	run(itgraph.MustNew(hosp), qs, 48)

	for trial := 0; trial < 60; trial++ {
		n := 3 + trial%2
		v := randomVenue(t, rng, n, n)
		side := float64(n) * 10
		qs = qs[:0]
		for probe := 0; probe < 8; probe++ {
			qs = append(qs, Query{
				Source: geom.Pt(rng.Float64()*side, rng.Float64()*side, 0),
				Target: geom.Pt(rng.Float64()*side, rng.Float64()*side, 0),
				At:     temporal.TimeOfDay(rng.Float64() * 86400),
			})
		}
		run(itgraph.MustNew(v), qs, 2)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDistances hashes a SingleSource outcome: the error, the
// departure and every door and partition entry in ascending order.
func goldenDistances(h hash.Hash, dm *DistanceMap, err error) {
	fmt.Fprintf(h, "err=%v;", err)
	if dm == nil {
		return
	}
	fmt.Fprintf(h, "src=%v;at=%x;", dm.Source, math.Float64bits(float64(dm.At)))
	for _, d := range slices.Sorted(maps.Keys(dm.Doors)) {
		fmt.Fprintf(h, "d%d=%x,", d, math.Float64bits(dm.Doors[d]))
	}
	for _, p := range slices.Sorted(maps.Keys(dm.Partitions)) {
		fmt.Fprintf(h, "p%d=%x,", p, math.Float64bits(dm.Partitions[p]))
	}
}
