package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// exactMetrics are the per-layer counts that must not vary between two
// traced runs of one seed.
var exactMetrics = []string{
	"core.allocs_per_search",
	"core.pops_per_search",
	"core.relaxations_per_search",
	"core.tv_checks_per_search",
	"server.response_bytes",
	"service.searches_per_query",
	"service.families_per_query",
}

// TestExactCountsRepeat runs the traced run's single-client and core
// passes twice per workload on one seed and checks that the counts
// meant to repeat exactly do.
func TestExactCountsRepeat(t *testing.T) {
	vi, err := newVenueInfo()
	if err != nil {
		t.Fatal(err)
	}
	// flips needs more than flipEvery requests to race an update.
	sizes := map[string]int{"scatter": 60, "crowd": 200, "kiosk": 100, "flips": flipEvery + 50}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := vi.generate(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			meas := withProbeUpdates(w, w.measured(sizes[name]))
			var runs [2]map[string]metric
			for k := range runs {
				sp, err := singleClientPass(w, meas)
				if err != nil {
					t.Fatal(err)
				}
				all := append(append([]request(nil), w.warm...), meas...)
				cp := corePass(w, all, sp.hits, len(w.warm), &recorder{t0: time.Now()})
				runs[k] = map[string]metric{}
				for n, m := range sp.metrics {
					runs[k][n] = m
				}
				for n, m := range cp.metrics {
					runs[k][n] = m
				}
			}
			for _, n := range exactMetrics {
				a, ok := runs[0][n]
				if !ok {
					t.Fatalf("%s: not reported", n)
				}
				if b := runs[1][n]; a.Value != b.Value {
					t.Errorf("%s: %v then %v", n, a.Value, b.Value)
				}
			}
			t.Logf("searches/query %.4f, families/query %.4f, pops/search %.1f, allocs/search %.1f",
				runs[0]["service.searches_per_query"].Value, runs[0]["service.families_per_query"].Value,
				runs[0]["core.pops_per_search"].Value, runs[0]["core.allocs_per_search"].Value)
		})
	}
}

// TestClosedLoopSendsAPrefix drives the closed loop from a producer, as
// the measured phase does, against a server that echoes each body, and
// checks that the requests it reports are the feed's first ones in feed
// order, each paired with its own response, and that repeated bodies
// are stored once.
func TestClosedLoopSendsAPrefix(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	}))
	defer srv.Close()
	ld := newLoader(srv.URL, 2)
	defer ld.close()
	feed := make(chan numbered, 8)
	stop, produced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; ; i++ {
			r := request{kind: kindRoute, body: []byte(strconv.Itoa(i % 50))}
			select {
			case feed <- numbered{i, r}:
			case <-stop:
				return
			}
		}
	}()
	reqs, recs, _ := ld.closedLoop(feed, 2, time.Now().Add(200*time.Millisecond), nil)
	close(stop)
	<-produced
	if len(reqs) == 0 || len(reqs) != len(recs) {
		t.Fatalf("%d requests, %d records", len(reqs), len(recs))
	}
	for i := range reqs {
		if want := strconv.Itoa(i % 50); string(reqs[i].body) != want {
			t.Fatalf("request %d has body %q, want %q", i, reqs[i].body, want)
		}
		if got := ld.store.body(recs[i].resp); recs[i].status != http.StatusOK || string(got) != string(reqs[i].body) {
			t.Fatalf("request %d: status %d, response %q", i, recs[i].status, got)
		}
	}
	if n, want := len(ld.store.bodies), min(len(reqs), 50); n != want {
		t.Errorf("%d bodies stored, want %d", n, want)
	}
}
