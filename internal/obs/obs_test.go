package obs

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(1 * time.Millisecond)   // == 0.001 -> first bucket (le semantics)
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(50 * time.Millisecond)  // <= 0.1
	h.Observe(2 * time.Second)        // overflow
	h.Observe(-time.Second)           // clamps to 0 -> first bucket

	s := h.Snapshot()
	want := []int64{3, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 2
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Errorf("SumSeconds = %v, want %v", s.SumSeconds, wantSum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot count = %d", s.Count)
	}
}

func TestSnapshotAddSub(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	a := h.Snapshot()
	h.Observe(20 * time.Millisecond) // overflow
	h.Observe(5 * time.Millisecond)
	b := h.Snapshot()

	d := b.Sub(a)
	if d.Count != 2 || d.Counts[1] != 1 || d.Counts[2] != 1 {
		t.Errorf("delta = %+v", d)
	}
	if math.Abs(d.SumSeconds-0.025) > 1e-9 {
		t.Errorf("delta sum = %v, want 0.025", d.SumSeconds)
	}

	m := a.Add(d)
	if m.Count != b.Count || m.SumSeconds != b.SumSeconds {
		t.Errorf("a+delta = %+v, want %+v", m, b)
	}

	// Zero value is the identity.
	var zero HistogramSnapshot
	if got := zero.Add(b); got.Count != b.Count {
		t.Errorf("zero.Add = %+v", got)
	}
	if got := b.Add(zero); got.Count != b.Count {
		t.Errorf("Add(zero) = %+v", got)
	}
	if got := b.Sub(zero); got.Count != b.Count {
		t.Errorf("Sub(zero) = %+v", got)
	}
	// Clamped: subtracting a later snapshot never goes negative.
	if got := a.Sub(b); got.Count != 0 || got.SumSeconds != 0 {
		t.Errorf("a.Sub(b) = %+v, want empty", got)
	}
	// Incompatible bounds don't combine.
	other := NewHistogram([]float64{1}).Snapshot()
	if got := b.Add(other); got.Count != b.Count {
		t.Errorf("incompatible Add changed snapshot: %+v", got)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(5 * time.Millisecond)
	}
	h.Observe(50 * time.Millisecond)
	s := h.Snapshot()

	if got := s.Quantile(0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := s.Quantile(0.95); got != 0.01 {
		t.Errorf("p95 = %v, want 0.01", got)
	}
	if got := s.Quantile(1); got != 0.1 {
		t.Errorf("p100 = %v, want 0.1", got)
	}
	if lo, hi := s.QuantileBucket(0.95); lo != 0.001 || hi != 0.01 {
		t.Errorf("p95 bucket = [%v, %v], want [0.001, 0.01]", lo, hi)
	}
	h.Observe(5 * time.Second) // overflow
	if _, hi := h.Snapshot().QuantileBucket(1); !math.IsInf(hi, 1) {
		t.Errorf("overflow quantile hi = %v, want +Inf", hi)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := s.MeanSeconds(); got <= 0 {
		t.Errorf("mean = %v", got)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Start(StageEngine)
	sp.End()
	sp.EndWith("attrs")
	tr.Add(StageHold, time.Time{}, time.Second, nil)
	tr.Adopt(nil)
	if c := tr.NewCollector(); c != nil {
		t.Fatalf("nil collector = %v", c)
	}
	if d := tr.Doc(RequestInfo{}); d != nil {
		t.Fatalf("nil doc = %v", d)
	}
	var o *Observer
	if o.NewTrace() != nil {
		t.Fatal("nil observer produced a trace")
	}
	o.FinishRequest(nil, RequestInfo{})
	if o.Traces() != nil || o.StageSnapshots() != nil || o.RequestSnapshots() != nil {
		t.Fatal("nil observer returned non-nil snapshots")
	}
}

// TestNilTraceZeroAlloc pins the disabled fast path: starting and
// ending spans on a nil trace must not allocate at all.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start(StageProbe)
		sp.End()
		sp = tr.Start(StageEngine)
		sp.End()
		tr.Add(StageHold, time.Time{}, time.Second, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span ops allocate %v allocs/op, want 0", allocs)
	}
}

func TestTraceSpansAndDoc(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	tr := o.NewTrace()
	sp := tr.Start(StageProbe)
	sp.End()
	sp = tr.Start(StageEngine)
	sp.EndWith(map[string]int{"pops": 7})
	time.Sleep(time.Millisecond)
	doc := tr.Doc(RequestInfo{Venue: "v", Method: "asyn", Outcome: OutcomeOK, Hit: "miss"})
	if doc.Venue != "v" || doc.Method != "asyn" || doc.Outcome != OutcomeOK || doc.Hit != "miss" {
		t.Fatalf("doc labels = %+v", doc)
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(doc.Spans))
	}
	if doc.Spans[0].Stage != "probe" || doc.Spans[1].Stage != "engine" {
		t.Fatalf("span order = %s, %s", doc.Spans[0].Stage, doc.Spans[1].Stage)
	}
	if doc.Spans[1].Attrs == nil {
		t.Fatal("engine span lost attrs")
	}
	if doc.DurationMs < 1 {
		t.Fatalf("duration = %v, want >= 1ms", doc.DurationMs)
	}
	for _, s := range doc.Spans {
		if s.StartMs < 0 || s.StartMs+s.DurationMs > doc.DurationMs+0.5 {
			t.Fatalf("span %+v escapes trace window %v", s, doc.DurationMs)
		}
	}
	// Stage histograms were fed.
	st := o.StageSnapshots()
	if st["probe"].Count != 1 || st["engine"].Count != 1 {
		t.Fatalf("stage counts: probe=%d engine=%d", st["probe"].Count, st["engine"].Count)
	}
}

func TestTraceSpanCap(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	tr := o.NewTrace()
	for i := 0; i < maxSpans+10; i++ {
		tr.Start(StageProbe).End()
	}
	doc := tr.Doc(RequestInfo{})
	if len(doc.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(doc.Spans), maxSpans)
	}
	if doc.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", doc.DroppedSpans)
	}
	// Dropped spans still feed the histogram.
	if got := o.StageSnapshots()["probe"].Count; got != maxSpans+10 {
		t.Fatalf("probe count = %d, want %d", got, maxSpans+10)
	}
}

func TestCollectorAdoptNoDoubleCount(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	tr1 := o.NewTrace()
	tr2 := o.NewTrace()
	col := tr1.NewCollector()
	col.Start(StageEngine).End()

	tr1.Adopt(col)
	tr2.Adopt(col)
	if got := o.StageSnapshots()["engine"].Count; got != 1 {
		t.Fatalf("engine histogram count = %d, want 1 (adopt must not re-observe)", got)
	}
	if d := tr1.Doc(RequestInfo{}); len(d.Spans) != 1 || d.Spans[0].Stage != "engine" {
		t.Fatalf("tr1 doc = %+v", d)
	}
	if d := tr2.Doc(RequestInfo{}); len(d.Spans) != 1 {
		t.Fatalf("tr2 doc = %+v", d)
	}
	// Self-adopt is a no-op.
	tr1.Adopt(tr1)
	if d := tr1.Doc(RequestInfo{}); len(d.Spans) != 1 {
		t.Fatalf("self-adopt duplicated spans: %+v", d)
	}
}

func TestContextPlumbing(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	tr := o.NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %v, want %v", got, tr)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context trace = %v", got)
	}
	if got := WithTrace(context.Background(), nil); got != context.Background() {
		t.Fatal("WithTrace(nil) should return ctx unchanged")
	}
}

func mkDoc(ms float64) *TraceDoc {
	return &TraceDoc{DurationMs: ms, Spans: []SpanDoc{}}
}

func TestRingBoundsAndSlowestK(t *testing.T) {
	const cap, slowK, sampleN = 10, 4, 3
	r := NewTraceRing(cap, slowK, sampleN)
	for i := 0; i < 500; i++ {
		r.Offer(mkDoc(float64(i % 97)))
		if r.Len() > cap {
			t.Fatalf("ring grew to %d > capacity %d after %d offers", r.Len(), cap, i+1)
		}
	}
	snap := r.Snapshot()
	if len(snap) > cap {
		t.Fatalf("snapshot len = %d > capacity %d", len(snap), cap)
	}
	// The slowK slowest seen (96, repeated) must be retained, sorted
	// descending at the front.
	for i := 0; i < slowK; i++ {
		if !snap[i].Slow {
			t.Fatalf("snap[%d] not flagged slow: %+v", i, snap[i])
		}
		if snap[i].DurationMs != 96 {
			t.Fatalf("slow[%d] = %v ms, want 96", i, snap[i].DurationMs)
		}
	}
	for i := 1; i < slowK; i++ {
		if snap[i].DurationMs > snap[i-1].DurationMs {
			t.Fatal("slow prefix not sorted descending")
		}
	}
	// The rest are flagged sampled.
	for _, d := range snap[slowK:] {
		if !d.Sampled || d.Slow {
			t.Fatalf("tail doc flags = %+v", d)
		}
	}
}

func TestRingSampling(t *testing.T) {
	r := NewTraceRing(100, 0, 5) // sampling only
	for i := 0; i < 50; i++ {
		r.Offer(mkDoc(1))
	}
	if got := r.Len(); got != 10 {
		t.Fatalf("1-in-5 of 50 offers retained %d, want 10", got)
	}
	// Newest first.
	r2 := NewTraceRing(3, 0, 1)
	for i := 1; i <= 5; i++ {
		r2.Offer(mkDoc(float64(i)))
	}
	snap := r2.Snapshot()
	if len(snap) != 3 || snap[0].DurationMs != 5 || snap[1].DurationMs != 4 || snap[2].DurationMs != 3 {
		t.Fatalf("ring snapshot = %v", durations(snap))
	}
}

// TestFinishRequestBuildsOnlyKeptDocs: the ring decides admission
// from the duration, so a request it does not keep builds no trace doc
// (FinishRequest allocates nothing), while a kept one still lands with
// the same slow-wins rule and 1-in-N count as Offer.
func TestFinishRequestBuildsOnlyKeptDocs(t *testing.T) {
	o := NewObserver(ObserverOptions{RingCapacity: 4, SlowK: 1, SampleN: 3})
	info := RequestInfo{Venue: "v", Method: "m", Outcome: OutcomeOK}
	slow := &Trace{obs: o, start: time.Now().Add(-time.Hour)}
	o.FinishRequest(slow, info)
	for i := 0; i < 9; i++ {
		o.FinishRequest(o.NewTrace(), info)
	}
	docs := o.Traces()
	if len(docs) != 4 || !docs[0].Slow || docs[0].DurationMs < 3.6e6 {
		t.Fatalf("after 1 slow and 9 fast requests the ring holds %v, want the slow one and 3 sampled", durations(docs))
	}
	for _, d := range docs[1:] {
		if !d.Sampled || d.Slow {
			t.Fatalf("sampled doc flags = %+v", d)
		}
	}

	o = NewObserver(ObserverOptions{RingCapacity: 2, SlowK: 1, SampleN: 1 << 30})
	o.FinishRequest(&Trace{obs: o, start: time.Now().Add(-time.Hour)}, info)
	tr := o.NewTrace()
	tr.Start(StageProbe).End()
	if allocs := testing.AllocsPerRun(100, func() { o.FinishRequest(tr, info) }); allocs != 0 {
		t.Fatalf("FinishRequest of a trace the ring drops allocated %v times, want 0", allocs)
	}
	if got := o.ring.Len(); got != 1 {
		t.Fatalf("ring holds %d docs, want only the slow one", got)
	}
}

func durations(docs []*TraceDoc) []float64 {
	out := make([]float64, len(docs))
	for i, d := range docs {
		out[i] = d.DurationMs
	}
	return out
}

func TestObserverFinishRequest(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	for i := 0; i < 3; i++ {
		tr := o.NewTrace()
		tr.Start(StageProbe).End()
		o.FinishRequest(tr, RequestInfo{Venue: "v", Method: "asyn", Outcome: OutcomeOK})
	}
	tr := o.NewTrace()
	o.FinishRequest(tr, RequestInfo{Venue: "v", Method: "asyn", Outcome: OutcomeError})

	req := o.RequestSnapshots()
	if got := req[RequestKey{"v", "asyn", OutcomeOK}].Count; got != 3 {
		t.Fatalf("ok count = %d, want 3", got)
	}
	if got := req[RequestKey{"v", "asyn", OutcomeError}].Count; got != 1 {
		t.Fatalf("error count = %d, want 1", got)
	}
	keys := SortedRequestKeys(req)
	if len(keys) != 2 || keys[0].Outcome != OutcomeError || keys[1].Outcome != OutcomeOK {
		t.Fatalf("sorted keys = %v", keys)
	}
	if got := len(o.Traces()); got != 4 {
		t.Fatalf("ring holds %d traces, want 4", got)
	}
}

// TestObserverRace hammers every concurrent surface at once; run
// under -race in CI.
func TestObserverRace(t *testing.T) {
	o := NewObserver(ObserverOptions{RingCapacity: 8, SlowK: 2, SampleN: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := o.NewTrace()
				col := tr.NewCollector()
				col.Start(StageEngine).End()
				tr.Start(StageProbe).End()
				tr.Adopt(col)
				o.FinishRequest(tr, RequestInfo{
					Venue:   "v",
					Method:  "asyn",
					Outcome: fmt.Sprintf("o%d", g%3),
				})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.Traces()
				o.StageSnapshots()
				o.RequestSnapshots()
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, s := range o.RequestSnapshots() {
		total += s.Count
	}
	if total != 8*200 {
		t.Fatalf("request observations = %d, want %d", total, 8*200)
	}
}
