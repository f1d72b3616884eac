package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// The reference mapping below is how route bodies were built before
// the encoder: each outcome mapped onto the exported wire types, then
// json.NewEncoder(w).Encode. The encoder's bytes must equal it.

// resultResponse maps one pool outcome — path, error, stats and every
// provenance flag — onto the wire types.
func resultResponse(mv *model.Venue, res service.Result) RouteResponse {
	resp := responseOf(mv, res.Path, res.Err, &res.Stats)
	resp.CacheHit = res.CacheHit
	resp.Hit = string(res.Hit)
	resp.Shared = res.Shared
	resp.SharedRun = res.SharedRun
	resp.Coalesced = res.Coalesced
	resp.Explain = res.Explain.String() // "" on hits (omitted from the wire)
	return resp
}

// responseOf maps an engine outcome to the wire. ErrNoRoute is the
// regular negative answer (Found=false, no error); ErrNotIndoor and
// anything else become embedded error docs.
func responseOf(mv *model.Venue, path *core.Path, err error, stats *core.SearchStats) RouteResponse {
	switch {
	case errors.Is(err, core.ErrNoRoute):
		return RouteResponse{Found: false, Stats: stats}
	case err != nil:
		return RouteResponse{Error: errorDocOf(err)}
	default:
		return RouteResponse{Found: true, Path: pathDoc(mv, path), Stats: stats}
	}
}

// pathDoc converts a found path, resolving door and partition names
// against the venue.
func pathDoc(v *model.Venue, p *core.Path) *PathDoc {
	doc := &PathDoc{
		Format:    p.Format(v),
		LengthM:   p.Length,
		Hops:      p.Hops(),
		DepartSec: float64(p.DepartedAt),
		Depart:    p.DepartedAt.String(),
		ArriveSec: float64(p.ArrivalAtTgt),
		Arrive:    p.ArrivalAtTgt.String(),
		WaitSec:   float64(p.TotalWait),
	}
	for i, d := range p.Doors {
		doc.Doors = append(doc.Doors, DoorStep{
			Door:      v.Door(d).Name,
			ArriveSec: float64(p.Arrivals[i]),
			Arrive:    p.Arrivals[i].String(),
		})
	}
	for _, part := range p.Partitions {
		doc.Partitions = append(doc.Partitions, v.Partition(part).Name)
	}
	return doc
}

// batchResponse maps a batch's outcomes and summary onto the wire.
func batchResponse(mv *model.Venue, results []service.Result, sum service.BatchSummary) BatchResponse {
	out := BatchResponse{Results: make([]RouteResponse, len(results))}
	out.Cache = BatchCacheDoc{
		Queries:       sum.Queries,
		ExactHits:     sum.ExactHits,
		WindowHits:    sum.WindowHits,
		SkeletonHits:  sum.SkeletonHits,
		Searches:      sum.Searches,
		SharedRuns:    sum.SharedRuns,
		SharedAnswers: sum.SharedAnswers,
	}
	for i, res := range results {
		out.Results[i] = resultResponse(mv, res)
	}
	return out
}

// referenceBody is writeJSON's body for v: nothing when encoding/json
// refuses a value.
func referenceBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// encodedBody is the body the encoder sends after fill appends it.
func encodedBody(fill func(e *bodyEncoder)) []byte {
	rec := httptest.NewRecorder()
	e := newBodyEncoder()
	fill(e)
	e.send(rec)
	return rec.Body.Bytes()
}

// routeBodies returns the encoder's and the reference's body for one
// route outcome (stats false: a waiting answer).
func routeBodies(mv *model.Venue, res service.Result, stats bool, trace *obs.TraceDoc) (got, want []byte) {
	got = encodedBody(func(e *bodyEncoder) { e.route(mv, &res, stats, trace) })
	var resp RouteResponse
	if stats {
		resp = resultResponse(mv, res)
	} else {
		resp = responseOf(mv, res.Path, res.Err, nil)
	}
	resp.Trace = trace
	return got, referenceBody(resp)
}

func batchBodies(mv *model.Venue, results []service.Result, sum service.BatchSummary) (got, want []byte) {
	got = encodedBody(func(e *bodyEncoder) { e.batch(mv, results, &sum) })
	return got, referenceBody(batchResponse(mv, results, sum))
}

// answerKinds tallies which kinds of answer a set of outcomes covers.
type answerKinds map[string]int

func (k answerKinds) add(res service.Result, stats bool) {
	switch {
	case res.Err == nil:
		k["found"]++
		if len(res.Path.Doors) == 0 {
			k["door-less"]++
		}
		if res.Path.TotalWait > 0 {
			k["wait_sec"]++
		}
	case errors.Is(res.Err, core.ErrNoRoute):
		k["no route"]++
	case errors.Is(res.Err, core.ErrNotIndoor):
		k["not indoor"]++
	}
	if !stats {
		k["waiting"]++
	}
	if res.Hit != "" {
		k["hit "+string(res.Hit)]++
	}
	if res.Shared {
		k["shared"]++
	}
	if res.SharedRun {
		k["shared_run"]++
	}
	if res.Coalesced {
		k["coalesced"]++
	}
}

// mallPoint draws a point inside a random indoor mall partition,
// jittered off the cell centre, that locates to that partition.
func mallPoint(rng *rand.Rand, v *model.Venue) geom.Point {
	for {
		p := v.Partition(model.PartitionID(rng.Intn(v.PartitionCount())))
		if p.Kind == model.OutdoorPartition || p.Rect.Area() <= 0 {
			continue
		}
		c := p.Rect.Center()
		pt := geom.Pt(c.X+(rng.Float64()-0.5)*p.Rect.Width()/2, c.Y+(rng.Float64()-0.5)*p.Rect.Height()/2, p.Rect.Floor)
		if at, ok := v.Locate(pt); ok && at == p.ID {
			return pt
		}
	}
}

// jitter moves a point a little inside its partition.
func jitter(rng *rand.Rand, v *model.Venue, pt geom.Point) geom.Point {
	want, _ := v.Locate(pt)
	for {
		q := geom.Pt(pt.X+(rng.Float64()-0.5), pt.Y+(rng.Float64()-0.5), pt.Floor)
		if at, ok := v.Locate(q); ok && at == want {
			return q
		}
	}
}

// TestEncoderMatchesEncodingJSONOnMall runs the mall through pools,
// the coalescer and the waiting router for every kind of answer —
// found, no route and not indoor; miss, exact, window and skeleton
// hits; deduplicated and shared-run batch entries; coalesced answers;
// waiting answers with wait_sec; door-less paths; an inline trace —
// and requires the encoder's bodies to equal encoding/json's on the
// reference documents byte for byte.
func TestEncoderMatchesEncodingJSONOnMall(t *testing.T) {
	reg := NewRegistry(service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true})
	if _, err := reg.AddPresets("mall"); err != nil {
		t.Fatal(err)
	}
	ve, _ := reg.Get("mall")
	mv := ve.Model()
	rng := rand.New(rand.NewSource(29))
	kinds := answerKinds{}
	check := func(what string, res service.Result, stats bool, trace *obs.TraceDoc) {
		t.Helper()
		kinds.add(res, stats)
		got, want := routeBodies(mv, res, stats, trace)
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s: encoder body differs from encoding/json\n got: %s\nwant: %s", what, got, want)
		}
	}
	outside := geom.Pt(-1e4, -1e4, 0)
	for _, m := range pooledMethods {
		pool := ve.Pool(m)
		for i := 0; i < 40; i++ {
			src, tgt := mallPoint(rng, mv), mallPoint(rng, mv)
			at := temporal.TimeOfDay(rng.Float64() * float64(temporal.DaySeconds))
			if i%8 == 0 {
				tgt = jitter(rng, mv, src) // door-less
			}
			q := core.Query{Source: src, Target: tgt, At: at}
			name := fmt.Sprintf("%v query %d", m, i)
			check(name+" miss", pool.RouteTraced(nil, q), true, nil)
			check(name+" exact", pool.RouteTraced(nil, q), true, nil)
			q.At += 30
			check(name+" later", pool.RouteTraced(nil, q), true, nil)
			q2 := core.Query{Source: jitter(rng, mv, src), Target: jitter(rng, mv, tgt), At: at}
			check(name+" second of pair", pool.RouteTraced(nil, q2), true, nil)
			q3 := core.Query{Source: jitter(rng, mv, src), Target: jitter(rng, mv, tgt), At: at}
			check(name+" third of pair", pool.RouteTraced(nil, q3), true, nil)
		}
		check(fmt.Sprintf("%v not indoor", m), pool.RouteTraced(nil, core.Query{Source: outside, Target: mallPoint(rng, mv), At: 3600}), true, nil)

		// A batch: one source to eight targets (a shared run), two
		// copies of one query (deduplicated) and an endpoint outside
		// every partition.
		src := mallPoint(rng, mv)
		at := temporal.TimeOfDay(rng.Float64() * float64(temporal.DaySeconds))
		var qs []core.Query
		for j := 0; j < 8; j++ {
			qs = append(qs, core.Query{Source: src, Target: mallPoint(rng, mv), At: at})
		}
		qs = append(qs, qs[2], core.Query{Source: mallPoint(rng, mv), Target: outside, At: at})
		results, sum := pool.RouteBatchSummaryTraced(nil, qs)
		for _, res := range results {
			kinds.add(res, true)
		}
		if got, want := batchBodies(mv, results, sum); !bytes.Equal(got, want) {
			t.Fatalf("%v batch: encoder body differs from encoding/json\n got: %s\nwant: %s", m, got, want)
		}

		// Coalesced: four concurrent solo queries from one source fill
		// a four-query group, which flushes at once.
		c := coalesce.New(pool, coalesce.Options{Hold: time.Minute, MaxGroup: 4})
		var wg sync.WaitGroup
		coalesced := make([]service.Result, 4)
		for j := range coalesced {
			q := core.Query{Source: src, Target: mallPoint(rng, mv), At: at + 7}
			wg.Add(1)
			go func() {
				defer wg.Done()
				coalesced[j] = c.RouteTraced(nil, q)
			}()
		}
		wg.Wait()
		for j, res := range coalesced {
			check(fmt.Sprintf("%v coalesced %d", m, j), res, true, nil)
		}

		// An inline trace, as "trace": true returns it.
		o := obs.NewObserver(obs.ObserverOptions{})
		tr := o.NewTrace()
		res := pool.RouteTraced(tr, core.Query{Source: mallPoint(rng, mv), Target: mallPoint(rng, mv), At: at})
		doc := tr.Doc(obs.RequestInfo{Venue: "mall", Method: methodName(m), Outcome: obs.OutcomeOK, Hit: string(res.Hit)})
		check(fmt.Sprintf("%v traced", m), res, true, doc)
	}

	// Waiting answers: departures just before the mall's checkpoints
	// make some walks wait for a door to open.
	w := core.NewWaitingRouter(ve.Graph())
	cps := ve.Graph().Checkpoints().Times()
	for i := 0; i < 60; i++ {
		at := cps[i%len(cps)] - temporal.TimeOfDay(rng.Float64()*600)
		src, tgt := mallPoint(rng, mv), mallPoint(rng, mv)
		if i%10 == 0 {
			tgt = jitter(rng, mv, src)
		}
		path, err := w.Route(core.Query{Source: src, Target: tgt, At: at})
		check(fmt.Sprintf("waiting query %d", i), service.Result{Path: path, Err: err}, false, nil)
	}
	path, err := w.Route(core.Query{Source: outside, Target: mallPoint(rng, mv), At: 3600})
	check("waiting not indoor", service.Result{Path: path, Err: err}, false, nil)

	for _, k := range []string{
		"found", "no route", "not indoor", "hit miss", "hit exact", "hit window", "hit skeleton",
		"shared", "shared_run", "coalesced", "waiting", "wait_sec", "door-less",
	} {
		if kinds[k] == 0 {
			t.Errorf("no %q answer among the compared outcomes: %v", k, kinds)
		}
	}
}

// fuzzVenue builds a chain of partitions joined by doors, named from
// names: even entries name partitions, odd ones doors. Each name gets
// its index as a prefix, so names are unique and non-empty while their
// ends stay as drawn.
func fuzzVenue(names []string) (*model.Venue, error) {
	nParts := max(2, min(6, (len(names)+1)/2+1))
	name := func(i int) string {
		if i < len(names) {
			return strconv.Itoa(i) + names[i]
		}
		return strconv.Itoa(i)
	}
	b := model.NewBuilder("fuzz")
	parts := make([]model.PartitionID, nParts)
	for i := range parts {
		x := float64(10 * i)
		parts[i] = b.AddPartition(name(2*i), model.PublicPartition, geom.NewRect(x, 0, x+10, 10, 0))
	}
	for i := 1; i < nParts; i++ {
		d := b.AddDoor(name(2*i-1), model.PublicDoor, geom.Pt(float64(10*i), 5, 0), nil)
		b.ConnectBi(d, parts[i-1], parts[i])
	}
	return b.Build()
}

// FuzzRouteBody: on any names, finite numbers, path shapes, provenance
// flags and error kinds, the encoder's route and batch bodies equal
// encoding/json's encoding of the reference documents.
func FuzzRouteBody(f *testing.F) {
	names := strings.Join([]string{
		"lobby", `ward <1> & "2"`, "back\\slash\x00\x01\x1f\x7f", "tab\tnl\ncr\rff\fbs\b",
		"bad\xff\xfe utf8\xe2\x80", "sep par ", "é漢字🚪", "\xc3(", "<script>",
	}, "|")
	for _, x := range []float64{0, 1e-6, 9.999999e-7, 1e21, 9.99999999e20, 5e-324, 1.7976931348623157e308, 0.1, 123456789.125} {
		f.Add(names, x, 43200.5, -x, 1/(x+1), uint32(0), []byte{0, 1, 2, 3})
		f.Add(names, 64.25, x, 0.0, -x, uint32(0x03ffffff), []byte{5, 4, 3, 2, 1, 0})
	}
	f.Add("", 1.0, 2.0, 3.0, 4.0, uint32(0x0100_0004), []byte{})
	f.Add("a|b", -0.0, 86399.5, 1e-300, 1e300, uint32(0x02f0_00f1), []byte{9, 9})
	f.Add("x|y|z", 3.0, 86400.0, 2.5, 7.0, uint32(0x0055_0aa2), []byte{1})
	f.Add("p|d", 3.0, 86400.0, 2.5, 7.0, uint32(0x0123_4567), []byte{255, 128, 7})
	f.Add("p|d", 3.0, 86400.0, 2.5, 7.0, uint32(0x0000_0003), []byte{7})
	f.Fuzz(func(t *testing.T, names string, length, at, wait, big float64, flags uint32, seq []byte) {
		for _, x := range []float64{length, at, wait, big} {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return
			}
		}
		mv, err := fuzzVenue(strings.Split(names, "|"))
		if err != nil {
			t.Fatalf("fuzz venue: %v", err)
		}
		bit := func(i uint) bool { return flags>>i&1 == 1 }
		word := func(i int) int {
			if len(seq) == 0 {
				return int(flags)
			}
			return int(seq[i%len(seq)]) << (i % 24)
		}
		p := &core.Path{Length: length, DepartedAt: temporal.TimeOfDay(at),
			ArrivalAtTgt: temporal.TimeOfDay(at + length), TotalWait: temporal.TimeOfDay(wait)}
		if !bit(2) {
			for i, b := range seq {
				p.Doors = append(p.Doors, model.DoorID(int(b)%mv.DoorCount()))
				p.Arrivals = append(p.Arrivals, temporal.TimeOfDay(at+float64(i)*big))
			}
		}
		if !bit(3) {
			for i := 0; i <= len(p.Doors); i++ {
				p.Partitions = append(p.Partitions, model.PartitionID(word(i)%mv.PartitionCount()))
			}
		}
		res := service.Result{
			Path: p,
			Stats: core.SearchStats{
				Method: names, Pops: word(0), Settled: word(1), Relaxations: word(2), DoorsTouched: word(3),
				PartitionsVisited: word(4), HeapMax: word(5),
				Checker: core.CheckerStats{Checks: word(6), Passed: word(7), ATIProbes: word(8), SnapshotProbes: word(9),
					SlotSwitches: word(10), SnapshotBuilds: word(11), SnapshotBytes: word(12), PrunedLists: word(13)},
				BytesEstimate: word(14), Found: bit(1), PathHops: word(15), PathLength: big,
			},
			CacheHit:  bit(4),
			Shared:    bit(5),
			SharedRun: bit(6),
			Coalesced: bit(7),
			Hit:       []service.Hit{service.HitMiss, service.HitExact, service.HitWindow, service.HitSkeleton, "", service.Hit(names)}[flags>>16%6],
			Explain:   obs.Reason(flags >> 20 % (uint32(obs.NumReasons) + 1)),
		}
		message := mv.Door(model.DoorID(word(16) % mv.DoorCount())).Name
		switch flags & 3 {
		case 1:
			res.Err = core.ErrNoRoute
		case 2:
			res.Err = fmt.Errorf("%w: %s", core.ErrNotIndoor, message)
		case 3:
			res.Err = errors.New(message)
		}
		var trace *obs.TraceDoc
		if bit(25) {
			trace = &obs.TraceDoc{Venue: names, Method: message, Outcome: obs.OutcomeOK, Hit: string(res.Hit),
				DurationMs: big, Spans: []obs.SpanDoc{{Stage: "engine", StartMs: wait, DurationMs: length, Attrs: &res.Stats}}}
		}
		stats := bit(24)
		route := res
		if !stats {
			// A waiting answer is its path or error alone.
			route = service.Result{Path: res.Path, Err: res.Err}
		}
		if got, want := routeBodies(mv, route, stats, trace); !bytes.Equal(got, want) {
			t.Fatalf("route body differs from encoding/json at byte %d\n got: %q\nwant: %q", firstDiff(got, want), got, want)
		}
		other := res
		other.Err, other.Shared, other.Hit = nil, !res.Shared, service.HitExact
		sum := service.BatchSummary{Queries: word(17), ExactHits: word(18), WindowHits: word(19), SkeletonHits: word(20) % 3,
			Searches: word(21), SharedRuns: word(22) % 2, SharedAnswers: word(23) % 4}
		if got, want := batchBodies(mv, []service.Result{res, other}, sum); !bytes.Equal(got, want) {
			t.Fatalf("batch body differs from encoding/json at byte %d\n got: %q\nwant: %q", firstDiff(got, want), got, want)
		}
	})
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestServedBodiesMatchEncodingJSON sends a solo route, a waiting
// route and a batch with a duplicate through ServeHTTP on the mall and
// compares each body with encoding/json's encoding of the reference
// document, built from the same queries answered by a twin registry.
func TestServedBodiesMatchEncodingJSON(t *testing.T) {
	newMall := func() *Registry {
		reg := NewRegistry(service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true})
		if _, err := reg.AddPresets("mall"); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	srv := New(newMall(), Options{})
	twin, _ := newMall().Get("mall")
	mv := twin.Model()
	rng := rand.New(rand.NewSource(3))
	var status int
	serve := func(path string, body any) []byte {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)))
		status = rec.Code
		return rec.Body.Bytes()
	}
	wire := func(q core.Query, method string) RouteRequest {
		return RouteRequest{From: &PointDoc{X: q.Source.X, Y: q.Source.Y, Floor: q.Source.Floor},
			To: &PointDoc{X: q.Target.X, Y: q.Target.Y, Floor: q.Target.Floor}, At: q.At.String(), Method: method}
	}
	query := func() core.Query {
		return core.Query{Source: mallPoint(rng, mv), Target: mallPoint(rng, mv),
			At: temporal.TimeOfDay(rng.Intn(int(temporal.DaySeconds)))}
	}
	for i := 0; i < 20; i++ {
		q := query()
		got := serve("/v1/venues/mall/route", wire(q, ""))
		want := referenceBody(resultResponse(mv, twin.Pool(core.MethodAsyn).RouteTraced(nil, q)))
		if !bytes.Equal(got, want) {
			t.Fatalf("route %d: served body differs at byte %d\n got: %s\nwant: %s", i, firstDiff(got, want), got, want)
		}
		got = serve("/v1/venues/mall/route", wire(q, "waiting"))
		path, err := core.NewWaitingRouter(twin.Graph()).Route(q)
		if want = referenceBody(responseOf(mv, path, err, nil)); !bytes.Equal(got, want) {
			t.Fatalf("waiting route %d: served body differs at byte %d\n got: %s\nwant: %s", i, firstDiff(got, want), got, want)
		}
	}
	// A walking speed this small makes the arrival infinite, which
	// JSON cannot carry: the route is refused as a bad request that
	// names the speed. A waiting walk this slow reaches nothing before
	// midnight, so it answers no route.
	q := query()
	q.Target, q.Speed = jitter(rng, mv, q.Source), 5e-324
	slow := func(method string) RouteRequest {
		rq := wire(q, method)
		rq.Speed = q.Speed
		return rq
	}
	if res := twin.Pool(core.MethodAsyn).RouteTraced(nil, q); res.Err != nil || !math.IsInf(float64(res.Path.ArrivalAtTgt), 1) {
		t.Fatalf("route at 5e-324 m/s: the pool answers %v, %v; want an infinite arrival", res.Path, res.Err)
	}
	got := serve("/v1/venues/mall/route", slow(""))
	var refused struct {
		Error *ErrorDoc `json:"error"`
	}
	decodeInto(t, got, &refused)
	if e := refused.Error; status != http.StatusBadRequest || e == nil || e.Code != "bad_request" || !strings.Contains(e.Message, "5e-324 m/s") {
		t.Fatalf("route at 5e-324 m/s: HTTP %d %s; want 400 bad_request naming the speed", status, got)
	}
	got = serve("/v1/venues/mall/route", slow("waiting"))
	if status != http.StatusOK || !bytes.Equal(got, []byte(`{"found":false}`+"\n")) {
		t.Fatalf("waiting route at 5e-324 m/s: HTTP %d %s; want no route", status, got)
	}

	qs := []core.Query{query(), query(), query()}
	qs = append(qs, qs[1])
	batch := BatchRequest{Method: "syn"}
	for _, q := range qs {
		batch.Queries = append(batch.Queries, wire(q, ""))
	}
	got = serve("/v1/venues/mall/route:batch", batch)
	results, sum := twin.Pool(core.MethodSyn).RouteBatchSummaryTraced(nil, qs)
	if want := referenceBody(batchResponse(mv, results, sum)); !bytes.Equal(got, want) {
		t.Fatalf("batch: served body differs at byte %d\n got: %s\nwant: %s", firstDiff(got, want), got, want)
	}

	// In a batch only the slow entry carries the error; the others and
	// the cache summary are as before.
	qs = []core.Query{query(), q, query()}
	batch = BatchRequest{Method: "syn", Queries: []RouteRequest{wire(qs[0], ""), slow(""), wire(qs[2], "")}}
	got = serve("/v1/venues/mall/route:batch", batch)
	var resp BatchResponse
	decodeInto(t, got, &resp)
	if e := resp.Results[1].Error; status != http.StatusOK || e == nil || e.Code != "bad_request" || !strings.Contains(e.Message, "5e-324 m/s") {
		t.Fatalf("batch with a route at 5e-324 m/s: HTTP %d %s; want entry 1 to carry a bad_request naming the speed", status, got)
	}
	results, sum = twin.Pool(core.MethodSyn).RouteBatchSummaryTraced(nil, qs)
	refuseNonFinite(&results[1], q)
	if want := referenceBody(batchResponse(mv, results, sum)); !bytes.Equal(got, want) {
		t.Fatalf("batch with a route at 5e-324 m/s: served body differs at byte %d\n got: %s\nwant: %s", firstDiff(got, want), got, want)
	}
}
