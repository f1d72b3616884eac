package coalesce

import (
	"sync"
	"testing"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/geom"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// TestCoalescerTraced drives one deterministic two-waiter flush with
// both callers traced and checks that (a) each trace records its own
// hold span plus the adopted flush spans, and (b) the flush's shared
// work feeds the stage histograms exactly once, not once per waiter.
func TestCoalescerTraced(t *testing.T) {
	b := model.NewBuilder("traced")
	hall := b.AddPartition("hall", model.PublicPartition, geom.NewRect(0, 0, 10, 10, 0))
	shop := b.AddPartition("shop", model.PublicPartition, geom.NewRect(10, 0, 20, 10, 0))
	d := b.AddDoor("d", model.PublicDoor, geom.Pt(10, 5, 0), nil)
	b.ConnectBi(d, hall, shop)
	pool := service.New(itgraph.MustNew(b.MustBuild()), service.Options{SharedBatch: true, CacheCapacity: -1})
	c := New(pool, Options{Hold: time.Hour, MaxGroup: 2})
	o := obs.NewObserver(obs.ObserverOptions{})

	at := temporal.TimeOfDay(10 * 3600)
	qs := []core.Query{
		{Source: geom.Pt(2, 5, 0), Target: geom.Pt(18, 5, 0), At: at},
		{Source: geom.Pt(2, 5, 0), Target: geom.Pt(16, 2, 0), At: at},
	}
	traces := make([]*obs.Trace, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		traces[i] = o.NewTrace()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := c.RouteTraced(traces[i], qs[i])
			if r.Err != nil {
				t.Errorf("query %d: %v", i, r.Err)
			}
			if !r.Coalesced {
				t.Errorf("query %d not coalesced", i)
			}
		}(i)
	}
	wg.Wait()

	for i, tr := range traces {
		doc := tr.Doc(obs.RequestInfo{})
		stages := map[string]int{}
		for _, s := range doc.Spans {
			stages[s.Stage]++
		}
		if stages["hold"] != 1 {
			t.Errorf("trace %d hold spans = %d, want 1 (%v)", i, stages["hold"], stages)
		}
		if stages["plan"] != 1 || stages["engine"] == 0 {
			t.Errorf("trace %d missing adopted flush spans: %v", i, stages)
		}
	}
	// Shared flush work observed once, per-waiter holds observed per
	// waiter.
	st := o.StageSnapshots()
	if got := st["plan"].Count; got != 1 {
		t.Errorf("plan histogram count = %d, want 1", got)
	}
	if got := st["hold"].Count; got != 2 {
		t.Errorf("hold histogram count = %d, want 2", got)
	}
}
