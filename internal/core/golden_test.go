package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// goldenDigest pins every answer, every SearchStats field and every
// skeleton chain of goldenRun to what the map-based engine produced
// before the flat-array search kernel replaced it. The perfbench
// answer check compares served answers with the same build's
// Engine.Route, so it cannot catch a change in Route itself; this
// digest can. A search change that moves any door, arrival, length,
// counter or chain changes it; a deliberate one, such as a new
// tie-break rule, must recompute it.
const goldenDigest = "4a0c132b909dc9c9358d05bb2b7ae4b67ecde6c7cb09b131e23ee1fc7b107b29"

// TestGoldenDigest routes a fixed query set over the itspqd "mall"
// preset through Route, RouteMany, RouteManyTo and BuildSkeletonFamily
// with one engine per method reused across every call, and compares
// the hash of all results with goldenDigest.
func TestGoldenDigest(t *testing.T) {
	if got := goldenRun(t); got != goldenDigest {
		t.Errorf("golden digest = %s, want %s", got, goldenDigest)
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
	point := func() geom.Point {
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
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Source: point(), Target: point(), At: temporal.TimeOfDay(rng.Float64() * float64(temporal.DaySeconds))}
		if i%7 == 3 {
			qs[i].Speed = 1.1
		}
	}
	if n > 5 {
		qs[5].At += temporal.DaySeconds // departures past midnight wrap
	}
	return itgraph.MustNew(v), qs
}

func goldenRun(t *testing.T) string {
	g, qs := mallQueries(t, 40)
	v := g.Venue()
	h := sha256.New()
	for _, method := range []Method{MethodSyn, MethodAsyn, MethodStatic} {
		e := NewEngine(g, Options{Method: method})
		for _, q := range qs {
			p, st, err := e.Route(q)
			goldenPath(h, p, st, err)
			if err != nil {
				continue
			}
			sp, _ := v.Locate(q.Source)
			tp, _ := v.Locate(q.Target)
			goldenFamily(h, e.BuildSkeletonFamily(sp, tp, q.At))
		}
		for k := 0; k+5 <= len(qs); k += 5 {
			src := qs[k]
			tgts := []geom.Point{src.Target}
			for _, q := range qs[k+1 : k+5] {
				tgts = append(tgts, q.Target)
			}
			tgts = append(tgts, src.Target) // a duplicate target
			for _, o := range e.RouteMany(src.Source, tgts, src.At, src.Speed) {
				fmt.Fprintf(h, "solo=%v;", o.Solo)
				goldenPath(h, o.Path, o.Stats, o.Err)
			}
			if method != MethodStatic {
				continue
			}
			srcs := []geom.Point{src.Source}
			for _, q := range qs[k+1 : k+5] {
				srcs = append(srcs, q.Source)
			}
			for _, o := range e.RouteManyTo(srcs, src.Target, src.At, src.Speed) {
				fmt.Fprintf(h, "solo=%v;", o.Solo)
				goldenPath(h, o.Path, o.Stats, o.Err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPath hashes one outcome: the error, the full stats and, when
// found, every path field at float64 bit precision.
func goldenPath(h hash.Hash, p *Path, st SearchStats, err error) {
	fmt.Fprintf(h, "err=%v;stats=%+v;", err, st)
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
