// Fuzz coverage for the HTTP wire decoding/validation layer, which
// until now only had example-based tests. The targets run the server's
// own decode path (decodeJSON: strict JSON, unknown fields and trailing
// data rejected) and then assert the validation invariants the
// handlers rely on: a nil ErrorDoc from RouteRequest.query means a
// well-formed core.Query.
package server

import (
	"bytes"
	"math"
	"testing"

	"indoorpath/internal/temporal"
)

// decodeStrict is Server.decodeBody's decoding discipline without the
// HTTP plumbing.
func decodeStrict(raw []byte, dst any) error {
	return decodeJSON(bytes.NewReader(raw), dst)
}

func FuzzDecodeRouteRequest(f *testing.F) {
	for _, seed := range []string{
		`{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"}`,
		`{"from":{"x":1,"y":2,"floor":-1},"to":{"x":3,"y":4,"floor":2},"at":"23:59:59","method":"syn","speed":2.5}`,
		`{"from":null,"to":null,"at":""}`,
		`{"at":"7:60"}`,
		`{"from":{"x":1e308,"y":-1e308,"floor":2147483647},"to":{"x":0,"y":0,"floor":0},"at":"24:00"}`,
		`{"from":{"x":0,"y":0,"floor":0},"to":{"x":0,"y":0,"floor":0},"at":"12:00","speed":-1}`,
		`{"from":{"x":0,"y":0,"floor":0},"to":{"x":0,"y":0,"floor":0},"at":"12:00","speed":1e999}`,
		`{"method":"waiting","from":{"x":1,"y":1,"floor":0},"to":{"x":2,"y":2,"floor":0},"at":"0:00"}`,
		`{"queries":[{"from":{"x":1,"y":1,"floor":0},"to":{"x":2,"y":2,"floor":0},"at":"9:30"}]}`,
		`{"queries":[],"method":"static"}`,
		`{"updates":{"ward-1-door":["10:00-18:00"],"gate":[]}}`,
		`{"preset":"office"}`,
		`{"dir":"/tmp/venues"}`,
		`[]`, `{}`, `null`, `0`, `"x"`, "{", `{"from":{}}{"to":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Every wire request struct must decode (or reject) without
		// panicking under the server's strict discipline.
		var br BatchRequest
		_ = decodeStrict(raw, &br)
		var sr SchedulesRequest
		_ = decodeStrict(raw, &sr)
		var vr VenuesLoadRequest
		_ = decodeStrict(raw, &vr)

		var req RouteRequest
		if err := decodeStrict(raw, &req); err != nil {
			return
		}
		q, errDoc := req.query()
		if errDoc != nil {
			if errDoc.Code != "bad_request" || errDoc.Message == "" {
				t.Fatalf("malformed error doc: %+v", errDoc)
			}
			return
		}
		// Validation accepted the request: the query must be the one the
		// engine contract expects.
		if req.From == nil || req.To == nil {
			t.Fatalf("query() accepted nil endpoints: %q", raw)
		}
		at, err := temporal.Parse(req.At)
		if err != nil {
			t.Fatalf("query() accepted unparseable at %q: %v", req.At, err)
		}
		if q.At != at {
			t.Fatalf("query() at = %v, want %v", q.At, at)
		}
		if q.At < 0 {
			t.Fatalf("negative time of day %v from %q", q.At, req.At)
		}
		if q.Speed < 0 || math.IsNaN(q.Speed) || math.IsInf(q.Speed, 0) {
			t.Fatalf("query() accepted bad speed %v", q.Speed)
		}
		if q.Source != req.From.point() || q.Target != req.To.point() {
			t.Fatalf("query() endpoints do not match the request")
		}
		// The method field must resolve or reject, never panic, in both
		// single-route and batch positions.
		if _, _, errDoc := parseMethod(req.Method, true); errDoc != nil && errDoc.Code != "bad_request" {
			t.Fatalf("parseMethod error doc: %+v", errDoc)
		}
		if _, _, errDoc := parseMethod(req.Method, false); errDoc != nil && errDoc.Code != "bad_request" {
			t.Fatalf("parseMethod error doc: %+v", errDoc)
		}
	})
}
