package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indoorpath/internal/coalesce"
	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/obs"
	"indoorpath/internal/service"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// Hospital probe points (see synth.Hospital): the ER centre and the
// centre of ward-1, whose door follows visiting hours 10:00–12:00 and
// 14:00–18:00.
var (
	erCentre   = PointDoc{X: 30, Y: 10, Floor: 0}
	wardCentre = PointDoc{X: 5, Y: 34, Floor: 0}
)

func newTestServer(t testing.TB, opts Options) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(service.Options{})
	if _, err := reg.AddPresets("hospital,office"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opts))
	t.Cleanup(ts.Close)
	return ts, reg
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body)
}

func doJSON(t testing.TB, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t testing.TB, url string, out any) *http.Response {
	t.Helper()
	resp, raw := doJSON(t, http.MethodGet, url, nil)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp
}

func decodeInto(t testing.TB, raw []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
}

// errCode extracts the error envelope code of a non-2xx body.
func errCode(t testing.TB, raw []byte) string {
	t.Helper()
	var envelope struct {
		Error *ErrorDoc `json:"error"`
	}
	decodeInto(t, raw, &envelope)
	if envelope.Error == nil {
		t.Fatalf("no error envelope in %s", raw)
	}
	return envelope.Error.Code
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var h HealthResponse
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Venues != 2 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestVenuesList(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var v VenuesResponse
	getJSON(t, ts.URL+"/v1/venues", &v)
	if len(v.Venues) != 2 {
		t.Fatalf("venues = %+v", v)
	}
	if v.Venues[0].ID != "hospital" || v.Venues[1].ID != "office" {
		t.Fatalf("ids not sorted: %+v", v.Venues)
	}
	h := v.Venues[0]
	if h.Name != "hospital-wing" || h.Doors == 0 || h.Partitions == 0 || h.Checkpoints == 0 {
		t.Fatalf("hospital info = %+v", h)
	}
	if h.Source != "preset:hospital" || h.Epoch != 0 {
		t.Fatalf("hospital info = %+v", h)
	}
}

// TestRouteMatchesEngine proves the serving stack answers exactly as a
// sequential core.Engine for every pooled method across the day.
func TestRouteMatchesEngine(t *testing.T) {
	ts, reg := newTestServer(t, Options{})
	ve, _ := reg.Get("hospital")
	for _, method := range []string{"syn", "asyn", "static"} {
		m, _, errDoc := parseMethod(method, false)
		if errDoc != nil {
			t.Fatal(errDoc)
		}
		e := core.NewEngine(ve.Graph(), core.Options{Method: m})
		for hour := 0; hour < 24; hour += 3 {
			at := temporal.Clock(hour, 0, 0)
			q := core.Query{Source: erCentre.point(), Target: wardCentre.point(), At: at}
			want, _, wantErr := e.Route(q)

			resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{
				From: &erCentre, To: &wardCentre, At: at.String(), Method: method,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s t=%d: status %d: %s", method, hour, resp.StatusCode, raw)
			}
			var rr RouteResponse
			decodeInto(t, raw, &rr)
			if errors.Is(wantErr, core.ErrNoRoute) {
				if rr.Found {
					t.Fatalf("%s t=%d: found a path where the engine found none", method, hour)
				}
				continue
			}
			if wantErr != nil {
				t.Fatal(wantErr)
			}
			if !rr.Found || rr.Path == nil {
				t.Fatalf("%s t=%d: found=false, engine found %v", method, hour, want)
			}
			assertPathEqual(t, ve, want, rr.Path)
			if rr.Stats == nil || rr.Stats.Method == "" {
				t.Fatalf("%s t=%d: missing stats", method, hour)
			}
		}
	}
}

// assertPathEqual compares a wire path to an engine path field by
// field (float64 survives a JSON round trip exactly).
func assertPathEqual(t testing.TB, ve *Venue, want *core.Path, got *PathDoc) {
	t.Helper()
	mv := ve.Model()
	if got.LengthM != want.Length || got.Hops != want.Hops() {
		t.Fatalf("length/hops = %v/%d, want %v/%d", got.LengthM, got.Hops, want.Length, want.Hops())
	}
	if got.ArriveSec != float64(want.ArrivalAtTgt) || got.DepartSec != float64(want.DepartedAt) {
		t.Fatalf("times = %v→%v, want %v→%v", got.DepartSec, got.ArriveSec, want.DepartedAt, want.ArrivalAtTgt)
	}
	if got.Format != want.Format(mv) {
		t.Fatalf("format = %q, want %q", got.Format, want.Format(mv))
	}
	if len(got.Doors) != len(want.Doors) {
		t.Fatalf("doors = %d, want %d", len(got.Doors), len(want.Doors))
	}
	for i, d := range want.Doors {
		if got.Doors[i].Door != mv.Door(d).Name || got.Doors[i].ArriveSec != float64(want.Arrivals[i]) {
			t.Fatalf("door[%d] = %+v, want %s at %v", i, got.Doors[i], mv.Door(d).Name, want.Arrivals[i])
		}
	}
}

func TestRouteNoRoute(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	// 13:00 falls in the visiting-hours gap: the ward is unreachable.
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{
		From: &erCentre, To: &wardCentre, At: "13:00",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var rr RouteResponse
	decodeInto(t, raw, &rr)
	if rr.Found || rr.Path != nil || rr.Error != nil {
		t.Fatalf("response = %s", raw)
	}
}

func TestRouteWaiting(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{
		From: &erCentre, To: &wardCentre, At: "13:00", Method: "waiting",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var rr RouteResponse
	decodeInto(t, raw, &rr)
	if !rr.Found || rr.Path == nil {
		t.Fatalf("response = %s", raw)
	}
	if rr.Path.WaitSec <= 0 {
		t.Fatalf("waiting route at 13:00 should wait for visiting hours, got wait %v", rr.Path.WaitSec)
	}
	if rr.Stats != nil {
		t.Fatalf("waiting has no engine stats, got %+v", rr.Stats)
	}
}

func TestRouteCacheHitFlag(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	req := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"}
	_, raw1 := postJSON(t, ts.URL+"/v1/venues/hospital/route", req)
	_, raw2 := postJSON(t, ts.URL+"/v1/venues/hospital/route", req)
	var r1, r2 RouteResponse
	decodeInto(t, raw1, &r1)
	decodeInto(t, raw2, &r2)
	if r1.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if !r2.CacheHit {
		t.Fatal("identical second request should be a cache hit")
	}
	if r1.Path.LengthM != r2.Path.LengthM || r1.Path.Format != r2.Path.Format {
		t.Fatalf("cache hit changed the answer: %s vs %s", raw1, raw2)
	}
}

// routeBody is a found ER → ward-1 route request, 77 bytes.
const routeBody = `{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"}`

// trailing is the message of a body with data after its JSON value.
const trailing = "trailing data after JSON body"

func TestRouteValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	url := ts.URL + "/v1/venues/hospital/route"
	// Every method names the endpoint and the point outside the venue.
	const notIndoor = "core: point is not covered by any partition: source (-500.00, -500.00, F0)"
	outside := &PointDoc{X: -500, Y: -500}
	cases := []struct {
		name       string
		body       any
		raw        string // used instead of body when non-empty
		wantStatus int
		wantCode   string
		wantMsg    string // checked when non-empty
	}{
		{name: "missing from", body: RouteRequest{To: &wardCentre, At: "11:00"}, wantStatus: 400, wantCode: "bad_request"},
		{name: "missing to", body: RouteRequest{From: &erCentre, At: "11:00"}, wantStatus: 400, wantCode: "bad_request"},
		{name: "missing at", body: RouteRequest{From: &erCentre, To: &wardCentre}, wantStatus: 400, wantCode: "bad_request"},
		{name: "bad at", body: RouteRequest{From: &erCentre, To: &wardCentre, At: "25:99"}, wantStatus: 400, wantCode: "bad_request"},
		{name: "bad method", body: RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00", Method: "dijkstra"}, wantStatus: 400, wantCode: "bad_request"},
		{name: "negative speed", body: RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00", Speed: -1}, wantStatus: 400, wantCode: "bad_request"},
		{name: "unknown field", raw: `{"fromm": {"x":1,"y":1,"floor":0}}`, wantStatus: 400, wantCode: "bad_request"},
		{name: "malformed json", raw: `{"from": `, wantStatus: 400, wantCode: "bad_request"},
		{name: "trailing brace", raw: routeBody + `}`, wantStatus: 400, wantCode: "bad_request", wantMsg: trailing},
		{name: "trailing bracket", raw: routeBody + `]garbage`, wantStatus: 400, wantCode: "bad_request", wantMsg: trailing},
		{name: "trailing word", raw: routeBody + ` x`, wantStatus: 400, wantCode: "bad_request", wantMsg: trailing},
		{name: "second value", raw: routeBody + "\n{}", wantStatus: 400, wantCode: "bad_request", wantMsg: trailing},
		{name: "not indoor", body: RouteRequest{From: &PointDoc{X: -500, Y: -500}, To: &wardCentre, At: "11:00"}, wantStatus: 422, wantCode: "not_indoor"},
		{name: "not indoor syn", body: RouteRequest{From: outside, To: &wardCentre, At: "11:00", Method: "syn"}, wantStatus: 422, wantCode: "not_indoor", wantMsg: notIndoor},
		{name: "not indoor waiting", body: RouteRequest{From: outside, To: &wardCentre, At: "11:00", Method: "waiting"}, wantStatus: 422, wantCode: "not_indoor", wantMsg: notIndoor},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var raw []byte
			if tc.raw != "" {
				r, err := http.Post(url, "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				raw, _ = io.ReadAll(r.Body)
				resp = r
			} else {
				resp, raw = postJSON(t, url, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if code := errCode(t, raw); code != tc.wantCode {
				t.Fatalf("code = %q, want %q", code, tc.wantCode)
			}
			if tc.wantMsg != "" {
				var envelope struct{ Error ErrorDoc }
				decodeInto(t, raw, &envelope)
				if envelope.Error.Message != tc.wantMsg {
					t.Fatalf("message = %q, want %q", envelope.Error.Message, tc.wantMsg)
				}
			}
		})
	}
}

func TestUnknownVenue(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, raw := postJSON(t, ts.URL+"/v1/venues/atlantis/route", RouteRequest{
		From: &erCentre, To: &wardCentre, At: "11:00",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if code := errCode(t, raw); code != "not_found" {
		t.Fatalf("code = %q", code)
	}
}

func TestRouteBatch(t *testing.T) {
	ts, reg := newTestServer(t, Options{})
	ve, _ := reg.Get("hospital")
	e := core.NewEngine(ve.Graph(), core.Options{Method: core.MethodAsyn})

	var req BatchRequest
	for hour := 8; hour <= 16; hour += 2 {
		req.Queries = append(req.Queries, RouteRequest{
			From: &erCentre, To: &wardCentre, At: temporal.Clock(hour, 0, 0).String(),
		})
	}
	req.Queries = append(req.Queries, req.Queries[0]) // duplicate: dedup work

	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route:batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	decodeInto(t, raw, &br)
	if len(br.Results) != len(req.Queries) {
		t.Fatalf("results = %d, want %d", len(br.Results), len(req.Queries))
	}
	for i, rr := range br.Results {
		at, _ := temporal.Parse(req.Queries[i].At)
		want, _, wantErr := e.Route(core.Query{Source: erCentre.point(), Target: wardCentre.point(), At: at})
		if errors.Is(wantErr, core.ErrNoRoute) {
			if rr.Found {
				t.Fatalf("results[%d]: found where engine found none", i)
			}
			continue
		}
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		if !rr.Found {
			t.Fatalf("results[%d]: not found, engine found %v", i, want)
		}
		assertPathEqual(t, ve, want, rr.Path)
	}
	last := br.Results[len(br.Results)-1]
	if !last.Shared && !last.CacheHit {
		t.Fatalf("duplicate entry neither shared nor cached: %s", raw)
	}
}

func TestBatchValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBatch: 3})
	url := ts.URL + "/v1/venues/hospital/route:batch"
	q := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"}

	cases := []struct {
		name       string
		req        BatchRequest
		wantStatus int
		wantIn     string
	}{
		{name: "empty", req: BatchRequest{}, wantStatus: 400, wantIn: "empty"},
		{name: "waiting method", req: BatchRequest{Method: "waiting", Queries: []RouteRequest{q}}, wantStatus: 400, wantIn: "only available for single route requests"},
		{name: "per-query method", req: BatchRequest{Queries: []RouteRequest{{From: &erCentre, To: &wardCentre, At: "11:00", Method: "syn"}}}, wantStatus: 400, wantIn: "per-query methods"},
		{name: "bad entry", req: BatchRequest{Queries: []RouteRequest{q, {From: &erCentre, To: &wardCentre, At: "nope"}}}, wantStatus: 400, wantIn: "queries[1]"},
		{name: "too large", req: BatchRequest{Queries: []RouteRequest{q, q, q, q}}, wantStatus: 413, wantIn: "3-query limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, url, tc.req)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			var envelope struct {
				Error *ErrorDoc `json:"error"`
			}
			decodeInto(t, raw, &envelope)
			if !strings.Contains(envelope.Error.Message, tc.wantIn) {
				t.Fatalf("message %q does not mention %q", envelope.Error.Message, tc.wantIn)
			}
		})
	}
}

// TestRequestBodyBounds: after a request body's JSON value only JSON
// whitespace may follow, and a body longer than MaxBodyBytes answers
// 413 wherever its value ends, on the route, batch and schedules
// endpoints.
func TestRequestBodyBounds(t *testing.T) {
	ts, reg := newTestServer(t, Options{MaxBodyBytes: 256})
	url := ts.URL + "/v1/venues/hospital/"
	batchBody := `{"queries":[` + routeBody + `]}`
	spaces := strings.Repeat(" ", 600)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantMsg                  string
	}{
		{"route, whitespace after", http.MethodPost, "route", routeBody + " \t\r\n ", 200, ""},
		{"route, whitespace past the cap", http.MethodPost, "route", routeBody + spaces, 413, "request body exceeds 256 bytes"},
		{"route, value past the cap", http.MethodPost, "route", `{"from":` + spaces + `{"x":30}}`, 413, "request body exceeds 256 bytes"},
		{"route, garbage past the cap", http.MethodPost, "route", routeBody + "}" + spaces, 413, "request body exceeds 256 bytes"},
		{"batch, whitespace after", http.MethodPost, "route:batch", batchBody + "\n", 200, ""},
		{"batch, whitespace past the cap", http.MethodPost, "route:batch", batchBody + spaces, 413, "request body exceeds 256 bytes"},
		{"batch, trailing braces", http.MethodPost, "route:batch", batchBody + `}}}}`, 400, trailing},
		{"schedules, trailing bracket", http.MethodPut, "schedules", `{"updates":{"ward-1-door":null}}]`, 400, trailing},
		{"schedules, whitespace past the cap", http.MethodPut, "schedules", `{"updates":{"ward-1-door":null}}` + spaces, 413, "request body exceeds 256 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, url+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantMsg == "" {
				return
			}
			var envelope struct{ Error ErrorDoc }
			decodeInto(t, raw, &envelope)
			if envelope.Error.Message != tc.wantMsg {
				t.Fatalf("message = %q, want %q", envelope.Error.Message, tc.wantMsg)
			}
		})
	}
	// Neither refused update was applied.
	if ve, _ := reg.Get("hospital"); ve.Epoch() != 0 {
		t.Fatalf("venue epoch = %d after refused updates, want 0", ve.Epoch())
	}
}

func TestProfile(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var pr ProfileResponse
	resp := getJSON(t, fmt.Sprintf("%s/v1/venues/hospital/profile?from=%g,%g,%d&to=%g,%g,%d",
		ts.URL, erCentre.X, erCentre.Y, erCentre.Floor, wardCentre.X, wardCentre.Y, wardCentre.Floor), &pr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(pr.Entries) == 0 {
		t.Fatal("no profile entries")
	}
	if pr.Entries[0].StartSec != 0 || pr.Entries[len(pr.Entries)-1].EndSec != float64(temporal.DaySeconds) {
		t.Fatalf("profile does not cover the day: %+v", pr.Entries)
	}
	// Visiting hours must toggle ward reachability across the day.
	var reachable, unreachable bool
	for _, e := range pr.Entries {
		if e.Reachable {
			reachable = true
			if e.LengthM <= 0 {
				t.Fatalf("reachable slot with zero length: %+v", e)
			}
		} else {
			unreachable = true
		}
	}
	if !reachable || !unreachable {
		t.Fatalf("profile should mix reachable and unreachable slots: %+v", pr.Entries)
	}

	// Validation.
	if resp := getJSON(t, ts.URL+"/v1/venues/hospital/profile?from=1,2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/venues/hospital/profile", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing params: status = %d", resp.StatusCode)
	}
}

// TestSchedulesLiveUpdate drives the live-update path end to end:
// route (cache fill), close the ward door, verify the same request now
// reports no route (no stale cache), reopen, verify it routes again.
func TestSchedulesLiveUpdate(t *testing.T) {
	ts, reg := newTestServer(t, Options{})
	url := ts.URL + "/v1/venues/hospital"
	req := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"}

	route := func() RouteResponse {
		t.Helper()
		resp, raw := postJSON(t, url+"/route", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route status = %d: %s", resp.StatusCode, raw)
		}
		var rr RouteResponse
		decodeInto(t, raw, &rr)
		return rr
	}

	if rr := route(); !rr.Found {
		t.Fatal("11:00 should route during visiting hours")
	}
	route() // second hit populates/serves cache

	// Close ward-1's door all day (empty ATI list = always closed).
	resp, raw := doJSON(t, http.MethodPut, url+"/schedules", SchedulesRequest{
		Updates: map[string][]string{"ward-1-door": {}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedules status = %d: %s", resp.StatusCode, raw)
	}
	var sr SchedulesResponse
	decodeInto(t, raw, &sr)
	if sr.DoorsUpdated != 1 || sr.Epoch != 1 {
		t.Fatalf("schedules response = %+v", sr)
	}
	if rr := route(); rr.Found {
		t.Fatal("route found after closing the ward door (stale cache?)")
	}

	// Reopen around the clock (null = always open).
	resp, raw = doJSON(t, http.MethodPut, url+"/schedules", SchedulesRequest{
		Updates: map[string][]string{"ward-1-door": nil},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedules status = %d: %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &sr)
	if sr.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", sr.Epoch)
	}
	if rr := route(); !rr.Found {
		t.Fatal("route not found after reopening the ward door")
	}

	// The venue listing reflects the update generation.
	ve, _ := reg.Get("hospital")
	if ve.Epoch() != 2 {
		t.Fatalf("venue epoch = %d, want 2", ve.Epoch())
	}
}

func TestSchedulesValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	url := ts.URL + "/v1/venues/hospital/schedules"
	cases := []struct {
		name   string
		req    SchedulesRequest
		wantIn string
	}{
		{name: "empty", req: SchedulesRequest{}, wantIn: "empty"},
		{name: "unknown door", req: SchedulesRequest{Updates: map[string][]string{"no-such-door": nil}}, wantIn: "unknown door"},
		{name: "bad ati", req: SchedulesRequest{Updates: map[string][]string{"ward-1-door": {"25:00-26:00"}}}, wantIn: "bad ATI"},
		{name: "inverted ati", req: SchedulesRequest{Updates: map[string][]string{"ward-1-door": {"16:00-08:00"}}}, wantIn: "ward-1-door"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := doJSON(t, http.MethodPut, url, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, raw)
			}
			var envelope struct {
				Error *ErrorDoc `json:"error"`
			}
			decodeInto(t, raw, &envelope)
			if !strings.Contains(envelope.Error.Message, tc.wantIn) {
				t.Fatalf("message %q does not mention %q", envelope.Error.Message, tc.wantIn)
			}
		})
	}
}

func TestStatsz(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	req := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"}
	postJSON(t, ts.URL+"/v1/venues/hospital/route", req)
	postJSON(t, ts.URL+"/v1/venues/hospital/route", req) // cache hit

	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	h, ok := sr.Venues["hospital"]
	if !ok {
		t.Fatalf("statsz missing hospital: %+v", sr)
	}
	asyn := h.Methods["asyn"]
	if asyn.Queries != 2 || asyn.CacheHits != 1 || asyn.CacheMisses() != 1 {
		t.Fatalf("asyn stats = %+v", asyn)
	}
	if syn := h.Methods["syn"]; syn.Queries != 0 {
		t.Fatalf("syn pool should be untouched: %+v", syn)
	}
	if _, ok := sr.Venues["office"]; !ok {
		t.Fatal("statsz missing office")
	}
}

func TestRequestTimeout(t *testing.T) {
	ts, _ := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{
		From: &erCentre, To: &wardCentre, At: "11:00",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	if code := errCode(t, raw); code != "timeout" {
		t.Fatalf("code = %q", code)
	}
}

func TestRunWithTimeout(t *testing.T) {
	block := make(chan struct{})
	_, outcome := runWithTimeout(t.Context(), 10*time.Millisecond, func() int {
		<-block
		return 1
	})
	if outcome != runTimeout {
		t.Fatalf("blocking fn: outcome = %v, want runTimeout", outcome)
	}
	close(block)

	v, outcome := runWithTimeout(t.Context(), -1, func() int { return 7 })
	if outcome != runDone || v != 7 {
		t.Fatalf("disabled timeout: %v %v", v, outcome)
	}

	v, outcome = runWithTimeout(t.Context(), time.Second, func() int { return 9 })
	if outcome != runDone || v != 9 {
		t.Fatalf("fast fn: %v %v", v, outcome)
	}
}

// TestRunWithTimeoutClientGone: a cancelled request context must read
// as the client hanging up, not as a server-side timeout — the two
// were previously conflated into one 504.
func TestRunWithTimeoutClientGone(t *testing.T) {
	// Already-gone client: aborts before fn even starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, outcome := runWithTimeout(ctx, time.Second, func() int { ran = true; return 1 })
	if outcome != runClientGone {
		t.Fatalf("pre-cancelled ctx: outcome = %v, want runClientGone", outcome)
	}
	if ran {
		t.Fatal("fn should not run for a client that is already gone")
	}

	// Mid-flight disconnect: cancellation during fn.
	ctx, cancel = context.WithCancel(context.Background())
	block := make(chan struct{})
	defer close(block)
	go func() { cancel() }()
	_, outcome = runWithTimeout(ctx, time.Minute, func() int {
		<-block
		return 1
	})
	if outcome != runClientGone {
		t.Fatalf("mid-flight cancel: outcome = %v, want runClientGone", outcome)
	}

	// Disconnects are classified even with the timeout disabled
	// (itspqd -timeout -1s): before fn starts and while it runs.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	ran = false
	_, outcome = runWithTimeout(ctx, -1, func() int { ran = true; return 1 })
	if outcome != runClientGone || ran {
		t.Fatalf("disabled timeout, pre-cancelled: outcome = %v, ran = %v", outcome, ran)
	}
	ctx, cancel = context.WithCancel(context.Background())
	_, outcome = runWithTimeout(ctx, -1, func() int { cancel(); return 1 })
	if outcome != runClientGone {
		t.Fatalf("disabled timeout, cancel during fn: outcome = %v, want runClientGone", outcome)
	}
}

// TestRouteClientGone drives the handler with a dead client: no 504
// body may be written and the disconnect must land in the client_gone
// counter, not the timeout one.
func TestRouteClientGone(t *testing.T) {
	reg := NewRegistry(service.Options{})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	srv := New(reg, Options{Logf: func(format string, args ...any) {
		fmt.Fprintf(&logged, format+"\n", args...)
	}})

	body, _ := json.Marshal(RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	req := httptest.NewRequest(http.MethodPost, "/v1/venues/hospital/route", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(req.Context())
	cancel() // the client is gone before the handler starts
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req.WithContext(ctx))

	if rec.Code == http.StatusGatewayTimeout {
		t.Fatalf("client disconnect answered 504: %s", rec.Body.String())
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("wrote a body into a dead connection: %s", rec.Body.String())
	}
	if got := srv.clientGone.Load(); got != 1 {
		t.Fatalf("clientGone = %d, want 1", got)
	}
	if got := srv.timeouts.Load(); got != 0 {
		t.Fatalf("timeouts = %d, want 0 (disconnects must not inflate timeouts)", got)
	}
	if !strings.Contains(logged.String(), "client disconnected") {
		t.Fatalf("disconnect not logged: %q", logged.String())
	}

	// A real deadline still answers 504 and lands in the other counter.
	srvTO := New(reg, Options{RequestTimeout: time.Nanosecond})
	rec = httptest.NewRecorder()
	srvTO.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/venues/hospital/route", bytes.NewReader(body)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", rec.Code)
	}
	if srvTO.timeouts.Load() != 1 || srvTO.clientGone.Load() != 0 {
		t.Fatalf("deadline counters = timeouts %d clientGone %d, want 1/0",
			srvTO.timeouts.Load(), srvTO.clientGone.Load())
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry(service.Options{})
	v := synth.Hospital()
	if err := reg.Add("a/b", v); err == nil {
		t.Fatal("slash in id should be rejected")
	}
	if err := reg.Add("", v); err == nil {
		t.Fatal("empty id should be rejected")
	}
	if err := reg.Add("ward\xff", v); err == nil {
		t.Fatal("id that is not valid UTF-8 should be rejected")
	}
	if err := reg.Add("h", v); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("h", v); err == nil {
		t.Fatal("duplicate id should be rejected")
	}
	if _, err := reg.AddPresets("nonsense"); err == nil {
		t.Fatal("unknown preset should be rejected")
	}
	if _, err := reg.LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty venue dir should be rejected")
	}
	if got := reg.IDs(); len(got) != 1 || got[0] != "h" {
		t.Fatalf("IDs = %v", got)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	saveVenue := func(name string, v *model.Venue) {
		t.Helper()
		var buf bytes.Buffer
		if err := itgraph.Save(&buf, v); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	saveVenue("wing.json", synth.Hospital())
	saveVenue("floor.json", synth.Office())

	reg := NewRegistry(service.Options{})
	ids, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "floor" || ids[1] != "wing" {
		t.Fatalf("loaded %v, want [floor wing]", ids)
	}
	ve, ok := reg.Get("wing")
	if !ok {
		t.Fatalf("IDs = %v", reg.IDs())
	}
	if !strings.HasPrefix(ve.Source(), "file:") {
		t.Fatalf("source = %q", ve.Source())
	}
	// A loaded venue routes.
	p, _, err := ve.Pool(core.MethodAsyn).Route(core.Query{
		Source: erCentre.point(), Target: wardCentre.point(), At: temporal.Clock(11, 0, 0),
	})
	if err != nil || p == nil {
		t.Fatalf("route over loaded venue: %v", err)
	}
}

// newWindowTestServer boots the hospital/office registry with the
// validity-window cache enabled on every pool.
func newWindowTestServer(t testing.TB, opts Options) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(service.Options{WindowCache: true})
	if _, err := reg.AddPresets("hospital,office"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opts))
	t.Cleanup(ts.Close)
	return ts, reg
}

// TestRouteHitProvenance walks one query family through all three
// provenance values on a window-enabled server: engine search, then a
// cross-time window hit (byte-identical to a fresh engine run at the
// shifted departure), then an exact hit on the identical repeat.
func TestRouteHitProvenance(t *testing.T) {
	ts, reg := newWindowTestServer(t, Options{})
	url := ts.URL + "/v1/venues/hospital/route"

	_, raw1 := postJSON(t, url, RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	var r1 RouteResponse
	decodeInto(t, raw1, &r1)
	if r1.Hit != "miss" || r1.CacheHit {
		t.Fatalf("first request: hit=%q cache_hit=%v, want miss: %s", r1.Hit, r1.CacheHit, raw1)
	}

	// 11:20 sits in the same visiting-hours slot: a window hit.
	_, raw2 := postJSON(t, url, RouteRequest{From: &erCentre, To: &wardCentre, At: "11:20"})
	var r2 RouteResponse
	decodeInto(t, raw2, &r2)
	if r2.Hit != "window" || !r2.CacheHit {
		t.Fatalf("shifted request: hit=%q cache_hit=%v, want window: %s", r2.Hit, r2.CacheHit, raw2)
	}
	ve, _ := reg.Get("hospital")
	want, _, err := core.NewEngine(ve.Graph(), core.Options{Method: core.MethodAsyn}).Route(core.Query{
		Source: erCentre.point(), Target: wardCentre.point(), At: temporal.Clock(11, 20, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertPathEqual(t, ve, want, r2.Path)
	if r2.Path.ArriveSec != float64(want.ArrivalAtTgt) || r2.Path.DepartSec != float64(want.DepartedAt) {
		t.Fatalf("window answer times %v/%v differ from engine %v/%v",
			r2.Path.DepartSec, r2.Path.ArriveSec, want.DepartedAt, want.ArrivalAtTgt)
	}

	// The engine-computed original repeats as an exact hit; the shifted
	// departure keeps serving from the window store (no promotion).
	_, raw3 := postJSON(t, url, RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	var r3 RouteResponse
	decodeInto(t, raw3, &r3)
	if r3.Hit != "exact" || !r3.CacheHit {
		t.Fatalf("repeat request: hit=%q, want exact: %s", r3.Hit, raw3)
	}
	_, raw4 := postJSON(t, url, RouteRequest{From: &erCentre, To: &wardCentre, At: "11:20"})
	var r4 RouteResponse
	decodeInto(t, raw4, &r4)
	if r4.Hit != "window" {
		t.Fatalf("repeated shifted request: hit=%q, want window: %s", r4.Hit, raw4)
	}

	// /statsz reflects the provenance split.
	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	asyn := sr.Venues["hospital"].Methods["asyn"]
	if asyn.Queries != 4 || asyn.CacheHits != 1 || asyn.WindowHits != 2 || asyn.CacheMisses() != 1 {
		t.Fatalf("asyn stats = %+v", asyn)
	}
}

// TestBatchCacheSummary: a departure sweep through the batch endpoint
// reports the cache summary the CLI prints, and the counts partition
// the batch.
func TestBatchCacheSummary(t *testing.T) {
	ts, _ := newWindowTestServer(t, Options{})
	var req BatchRequest
	for min := 0; min < 110; min += 10 { // 10:00..11:50, inside one slot
		req.Queries = append(req.Queries, RouteRequest{
			From: &erCentre, To: &wardCentre, At: temporal.Clock(10, min, 0).String(),
		})
	}
	req.Queries = append(req.Queries, req.Queries[0]) // duplicate → deduped
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route:batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	decodeInto(t, raw, &br)
	c := br.Cache
	if c.Queries != len(req.Queries) {
		t.Fatalf("cache.queries = %d, want %d", c.Queries, len(req.Queries))
	}
	deduped := c.Queries - c.ExactHits - c.WindowHits - c.Searches
	if deduped < 1 {
		t.Fatalf("summary does not account for the duplicate: %+v", c)
	}
	if c.WindowHits == 0 {
		t.Fatalf("one-slot sweep produced no window hits: %+v", c)
	}
	if c.Searches >= len(req.Queries)-1 {
		t.Fatalf("sweep did not reuse searches: %+v", c)
	}
	// Per-result provenance agrees with the summary.
	var exact, window, searches int
	for _, rr := range br.Results {
		if rr.Shared {
			continue
		}
		switch rr.Hit {
		case "exact":
			exact++
		case "window":
			window++
		default:
			searches++
		}
	}
	if exact != c.ExactHits || window != c.WindowHits || searches != c.Searches {
		t.Fatalf("summary %+v does not match per-result provenance %d/%d/%d", c, exact, window, searches)
	}
}

// TestMetricsz checks the Prometheus text endpoint: content type, HELP/
// TYPE headers, per-(venue, method) series, and counter movement.
func TestMetricsz(t *testing.T) {
	ts, _ := newWindowTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	postJSON(t, ts.URL+"/v1/venues/hospital/route", RouteRequest{From: &erCentre, To: &wardCentre, At: "11:30"})

	resp, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE indoorpath_pool_queries_total counter",
		"# TYPE indoorpath_pool_window_hits_total counter",
		"# TYPE indoorpath_pool_epoch gauge",
		"# HELP indoorpath_pool_engine_searches_total",
		"indoorpath_venues 2",
		`indoorpath_venue_epoch{venue="hospital"} 0`,
		`indoorpath_pool_queries_total{venue="hospital",method="asyn"} 2`,
		`indoorpath_pool_window_hits_total{venue="hospital",method="asyn"} 1`,
		`indoorpath_pool_engine_searches_total{venue="hospital",method="asyn"} 1`,
		"# TYPE indoorpath_pool_shared_runs_total counter",
		`indoorpath_pool_shared_runs_total{venue="hospital",method="asyn"} 0`,
		`indoorpath_pool_shared_answers_total{venue="hospital",method="asyn"} 0`,
		`indoorpath_pool_queries_total{venue="office",method="syn"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, body)
		}
	}
	// Two scrapes are deterministic byte-for-byte when idle.
	_, raw2 := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	if string(raw2) != body {
		t.Fatal("idle metricsz scrapes differ")
	}
}

// TestMetricszLabelEscaping registers venues whose IDs need the text
// format's escapes or carry bytes Go's %q would escape but the format
// does not (a tab, a soft hyphen): every label value must carry exactly
// the three exposition escapes, so a scraper reads back the ID.
func TestMetricszLabelEscaping(t *testing.T) {
	reg := NewRegistry(service.Options{})
	ids := []string{"ward\t2\u00ad", "a\"b\\c\nd"}
	for _, id := range ids {
		if err := reg.Add(id, synth.Hospital()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)

	_, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	body := string(raw)
	for _, want := range []string{
		"indoorpath_venue_epoch{venue=\"ward\t2\u00ad\"} 0\n",
		`indoorpath_venue_epoch{venue="a\"b\\c\nd"} 0` + "\n",
		"indoorpath_pool_queries_total{venue=\"ward\t2\u00ad\",method=\"asyn\"} 0\n",
		`indoorpath_engine_effort_pops_bucket{venue="a\"b\\c\nd",method="static",le="+Inf"} 0` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	if got := labels("venue", ids[1], "method", "asyn"); got != `venue="a\"b\\c\nd",method="asyn"` {
		t.Errorf("labels = %s", got)
	}
}

// TestCoalesceHoldLines pins the coalescer's Prometheus lines for a
// known hold histogram, byte for byte: a hold on a bound counts in that
// bound's bucket and a negative one in the first, buckets are
// cumulative, and the sum is in seconds.
func TestCoalesceHoldLines(t *testing.T) {
	h := obs.NewHistogram(coalesce.HoldBucketBounds[:])
	for _, d := range []time.Duration{
		500 * time.Microsecond, -time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond,
		2345678 * time.Nanosecond, 7 * time.Millisecond, 30 * time.Millisecond, time.Second,
	} {
		h.Observe(d)
	}
	st := coalesce.Stats{Queries: 7, Flushes: 3, Groups: 2, Answers: 6, Hold: h.Snapshot()}
	var sb strings.Builder
	writeCoalesceMetrics(&sb, []pooledRow{{labels("venue", "hospital", "method", "asyn"), MethodStatsDoc{Coalesce: st}}})
	const want = `# HELP indoorpath_coalesce_queries_total Solo route requests accepted by the standing coalescer.
# TYPE indoorpath_coalesce_queries_total counter
indoorpath_coalesce_queries_total{venue="hospital",method="asyn"} 7
# HELP indoorpath_coalesce_flushes_total Coalescer windows flushed (singleton windows included).
# TYPE indoorpath_coalesce_flushes_total counter
indoorpath_coalesce_flushes_total{venue="hospital",method="asyn"} 3
# HELP indoorpath_coalesce_groups_total Coalesced flushes: windows that accumulated two or more solo requests.
# TYPE indoorpath_coalesce_groups_total counter
indoorpath_coalesce_groups_total{venue="hospital",method="asyn"} 2
# HELP indoorpath_coalesce_answers_total Solo requests answered out of a coalesced (multi-request) flush.
# TYPE indoorpath_coalesce_answers_total counter
indoorpath_coalesce_answers_total{venue="hospital",method="asyn"} 6
# HELP indoorpath_coalesce_hold_seconds Time a solo request was held between arrival and its flush starting.
# TYPE indoorpath_coalesce_hold_seconds histogram
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.001"} 2
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.002"} 4
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.005"} 5
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.01"} 6
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.025"} 6
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="0.1"} 7
indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="+Inf"} 8
indoorpath_coalesce_hold_seconds_sum{venue="hospital",method="asyn"} 1.043345678
indoorpath_coalesce_hold_seconds_count{venue="hospital",method="asyn"} 8
`
	if got := sb.String(); got != want {
		t.Fatalf("coalesce lines:\n%s\nwant:\n%s", got, want)
	}
}

// newCoalesceTestServer boots the hospital preset behind a coalescing
// server whose flushes are deterministic: MaxGroup 2 and an
// effectively-infinite hold, so a flush happens exactly when the
// second concurrent request arrives.
func newCoalesceTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	reg := NewRegistry(service.Options{SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{
		Coalesce:         true,
		CoalesceHold:     10 * time.Second,
		CoalesceMaxGroup: 2,
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestCoalesceHoldClampedUnderTimeout: a hold window at or beyond the
// request deadline would make every singleton solo route 504 by
// construction; New clamps it, so a lone request is answered within
// the deadline instead.
func TestCoalesceHoldClampedUnderTimeout(t *testing.T) {
	reg := NewRegistry(service.Options{SharedBatch: true})
	if _, err := reg.AddPresets("hospital"); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	srv := New(reg, Options{
		Coalesce:       true,
		CoalesceHold:   time.Minute, // would exceed the deadline below
		RequestTimeout: 500 * time.Millisecond,
		Logf:           func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) },
	})
	if !strings.Contains(logged.String(), "clamped") {
		t.Fatalf("clamp not logged: %q", logged.String())
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/venues/hospital/route",
		RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("singleton under clamped hold: status %d: %s", resp.StatusCode, raw)
	}
	if srv.timeouts.Load() != 0 {
		t.Fatalf("timeouts = %d, want 0", srv.timeouts.Load())
	}
}

// TestRouteCoalesced: two concurrent solo route requests are answered
// out of one coalesced flush — both marked coalesced on the wire, one
// coalesced group in /statsz and /metricsz, and the pool seeing
// exactly two queries (the deduped member is not double-counted).
func TestRouteCoalesced(t *testing.T) {
	ts := newCoalesceTestServer(t)
	url := ts.URL + "/v1/venues/hospital/route"
	req := RouteRequest{From: &erCentre, To: &wardCentre, At: "11:00"}

	var rs [2]RouteResponse
	var wg sync.WaitGroup
	for i := range rs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, url, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &rs[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	shared := 0
	for i, r := range rs {
		if !r.Found || r.Path == nil {
			t.Fatalf("request %d: not found: %+v", i, r)
		}
		if !r.Coalesced {
			t.Fatalf("request %d: not marked coalesced", i)
		}
		if r.Shared {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("want exactly one deduped member in the identical pair, got %d", shared)
	}
	if rs[0].Path.LengthM != rs[1].Path.LengthM || rs[0].Path.Format != rs[1].Path.Format {
		t.Fatalf("coalesced answers differ: %+v vs %+v", rs[0].Path, rs[1].Path)
	}

	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != 2 || st.Deduped != 1 {
		t.Fatalf("pool stats = %+v, want 2 queries with 1 deduped", st)
	}
	cs := sr.Venues["hospital"].Methods["asyn"].Coalesce
	if cs.Hold.Bounds == nil {
		t.Fatalf("statsz missing coalesce stats: %+v", sr.Venues["hospital"])
	}
	if cs.Queries != 2 || cs.Flushes != 1 || cs.Groups != 1 || cs.Answers != 2 {
		t.Fatalf("coalesce stats = %+v, want one 2-query flush", cs)
	}
	if cs.HoldSumNanos < 0 || cs.MaxHoldNanos > int64(10*time.Second) {
		t.Fatalf("hold accounting out of range: %+v", cs)
	}
	if sr.Server.Timeouts != 0 || sr.Server.ClientGone != 0 {
		t.Fatalf("server stats = %+v, want zero aborts", sr.Server)
	}

	_, raw := doJSON(t, http.MethodGet, ts.URL+"/metricsz", nil)
	body := string(raw)
	for _, want := range []string{
		"# TYPE indoorpath_coalesce_groups_total counter",
		`indoorpath_coalesce_groups_total{venue="hospital",method="asyn"} 1`,
		`indoorpath_coalesce_answers_total{venue="hospital",method="asyn"} 2`,
		`indoorpath_coalesce_flushes_total{venue="hospital",method="asyn"} 1`,
		"# TYPE indoorpath_coalesce_hold_seconds histogram",
		`indoorpath_coalesce_hold_seconds_bucket{venue="hospital",method="asyn",le="+Inf"} 2`,
		`indoorpath_coalesce_hold_seconds_count{venue="hospital",method="asyn"} 2`,
		"# TYPE indoorpath_server_timeouts_total counter",
		"indoorpath_server_timeouts_total 0",
		"indoorpath_server_client_gone_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metricsz missing %q:\n%s", want, body)
		}
	}
}

// TestRouteCoalescedDistinctTargets: a coalesced flush of two
// distinct same-source queries is answered by ONE shared engine run
// (shared_run provenance on the wire, EngineSearches < queries).
func TestRouteCoalescedDistinctTargets(t *testing.T) {
	ts := newCoalesceTestServer(t)
	url := ts.URL + "/v1/venues/hospital/route"
	// Same source and departure, different in-venue targets: the
	// batchplan shared-source group answers both with one RouteMany.
	reqs := [2]RouteRequest{
		{From: &erCentre, To: &wardCentre, At: "11:00"},
		{From: &erCentre, To: &PointDoc{X: 20, Y: 14, Floor: 0}, At: "11:00"},
	}
	var rs [2]RouteResponse
	var wg sync.WaitGroup
	for i := range rs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, url, reqs[i])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.Unmarshal(raw, &rs[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, r := range rs {
		if !r.Coalesced || !r.SharedRun {
			t.Fatalf("request %d: want coalesced+shared_run provenance, got %+v", i, r)
		}
	}
	var sr StatsResponse
	getJSON(t, ts.URL+"/statsz", &sr)
	st := sr.Venues["hospital"].Methods["asyn"]
	if st.Queries != 2 || st.EngineSearches != 1 || st.SharedRuns != 1 || st.SharedAnswers != 2 {
		t.Fatalf("pool stats = %+v, want one shared run answering both", st)
	}
}
