package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"indoorpath/internal/service"
	"indoorpath/internal/temporal"
)

// rewindBody is a request body ServeHTTP can read again after Reset,
// so a measured loop allocates no readers of its own.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// servedAllocs is the mean allocations of one ServeHTTP call answering
// a POST of body to path, and the last response body. Requests, bodies
// and recorders are built before the measured runs.
func servedAllocs(t *testing.T, srv *Server, path string, body []byte) (float64, []byte) {
	t.Helper()
	const runs = 50
	reqs := make([]*http.Request, runs+1)
	bodies := make([]*rewindBody, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		bodies[i] = &rewindBody{}
		bodies[i].Reset(body)
		reqs[i] = httptest.NewRequest(http.MethodPost, path, nil)
		reqs[i].Body = bodies[i]
		recs[i] = httptest.NewRecorder()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		srv.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	}
	return allocs, recs[runs].Body.Bytes()
}

// TestServeHTTPAllocs pins the allocations of the route request path on
// the mall (pools with the window and skeleton stores and the
// shared-execution planner, no coalescer): a solo route answered from
// the exact cache, and a 16-query batch of exact-cache hits. The bounds
// are upper bounds, since Go's per-map hash seeds move single
// allocations from run to run.
func TestServeHTTPAllocs(t *testing.T) {
	reg := NewRegistry(service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true})
	if _, err := reg.AddPresets("mall"); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{})
	ve, _ := reg.Get("mall")
	mv := ve.Model()
	rng := rand.New(rand.NewSource(10))
	var batch BatchRequest
	for len(batch.Queries) < 16 {
		src, tgt := mallPoint(rng, mv), mallPoint(rng, mv)
		at := temporal.TimeOfDay(rng.Intn(86400))
		batch.Queries = append(batch.Queries, RouteRequest{
			From: &PointDoc{X: src.X, Y: src.Y, Floor: src.Floor},
			To:   &PointDoc{X: tgt.X, Y: tgt.Y, Floor: tgt.Floor},
			At:   at.String(),
		})
	}
	solo, err := json.Marshal(batch.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	many, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	const routePath, batchPath = "/v1/venues/mall/route", "/v1/venues/mall/route:batch"
	// Warm the exact cache with every query.
	servedAllocs(t, srv, batchPath, many)

	// These requests take 33 and 178 allocations (35 and 182 under
	// -race).
	for _, tc := range []struct {
		name, path string
		body       []byte
		max        float64
	}{
		{"solo exact-cache route", routePath, solo, 40},
		{"16-query batch of exact-cache hits", batchPath, many, 200},
	} {
		got, last := servedAllocs(t, srv, tc.path, tc.body)
		t.Logf("%s: %.1f allocations per request", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocations per request, want at most %v", tc.name, got, tc.max)
		}
		var resp BatchResponse
		if tc.path == routePath {
			resp.Results = make([]RouteResponse, 1)
			decodeInto(t, last, &resp.Results[0])
		} else {
			decodeInto(t, last, &resp)
		}
		for i, r := range resp.Results {
			if r.Hit != "exact" {
				t.Fatalf("%s: answer %d has hit %q, want exact", tc.name, i, r.Hit)
			}
		}
	}
}

// BenchmarkServeSchedules measures one PUT /schedules through
// ServeHTTP on the mall with every serving layer on (the pools' window
// and skeleton stores, the shared-execution planner and the
// coalescer): six always-open doors close and reopen in turn, so every
// iteration swaps the venue's graph.
func BenchmarkServeSchedules(b *testing.B) {
	reg := NewRegistry(service.Options{WindowCache: true, SkeletonCache: true, SharedBatch: true})
	if _, err := reg.AddPresets("mall"); err != nil {
		b.Fatal(err)
	}
	srv := New(reg, Options{Coalesce: true})
	ve, _ := reg.Get("mall")
	shut, open := SchedulesRequest{Updates: map[string][]string{}}, SchedulesRequest{Updates: map[string][]string{}}
	for _, d := range ve.Model().Doors() {
		if len(shut.Updates) == 6 {
			break
		}
		if d.ATIs.AlwaysOpenAllDay() {
			shut.Updates[d.Name], open.Updates[d.Name] = []string{}, nil
		}
	}
	var raws [2][]byte
	for i, doc := range []SchedulesRequest{shut, open} {
		var err error
		if raws[i], err = json.Marshal(doc); err != nil {
			b.Fatal(err)
		}
	}
	// decodeBody replaces the request's body, so each run restores it.
	req := httptest.NewRequest(http.MethodPut, "/v1/venues/mall/schedules", nil)
	body := &rewindBody{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(raws[i%2])
		req.Body = body
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("PUT /schedules: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
