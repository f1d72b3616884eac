package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	indoorpath "indoorpath"
)

func TestNewRegistry(t *testing.T) {
	// Presets load under their own IDs.
	reg, err := newRegistry("", "hospital,office", 2, 0, false, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.IDs(); len(got) != 2 || got[0] != "hospital" || got[1] != "office" {
		t.Fatalf("IDs = %v", got)
	}

	// A venue directory loads alongside presets.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "wing.json"))
	if err != nil {
		t.Fatal(err)
	}
	b := indoorpath.NewBuilder("wing")
	hall := b.AddPartition("hall", indoorpath.HallwayPartition, indoorpath.NewRect(0, 0, 10, 10, 0))
	room := b.AddPartition("room", indoorpath.PublicPartition, indoorpath.NewRect(10, 0, 20, 10, 0))
	b.ConnectBi(b.AddDoor("d", indoorpath.PublicDoor, indoorpath.Pt(10, 5, 0), nil), hall, room)
	if err := indoorpath.SaveVenue(f, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reg, err = newRegistry(dir, "figure1", 0, 0, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.IDs(); len(got) != 2 || got[0] != "figure1" || got[1] != "wing" {
		t.Fatalf("IDs = %v", got)
	}

	// window=true reaches the pools: a shifted repeat of the same OD
	// pair is served from the validity-window cache.
	wing, _ := reg.Get("wing")
	pool := wing.Pool(indoorpath.MethodAsyn)
	for _, at := range []indoorpath.TimeOfDay{indoorpath.Clock(12, 0, 0), indoorpath.Clock(13, 0, 0)} {
		if _, _, err := pool.Route(indoorpath.Query{
			Source: indoorpath.Pt(5, 5, 0), Target: indoorpath.Pt(15, 5, 0), At: at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.Stats(); st.WindowHits != 1 {
		t.Fatalf("window cache not enabled through newRegistry: %v", st)
	}

	// Errors propagate.
	if _, err := newRegistry("", "narnia", 0, 0, false, false, false); err == nil {
		t.Fatal("unknown preset should fail")
	}
	if _, err := newRegistry(t.TempDir(), "", 0, 0, false, false, false); err == nil {
		t.Fatal("empty venue dir should fail")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit = %d", code)
	}
	errb.Reset()
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no venues: exit = %d", code)
	}
	if !strings.Contains(errb.String(), "-venues and/or -preset") {
		t.Fatalf("stderr = %q", errb.String())
	}
	if code := run([]string{"-preset", "narnia"}, &out, &errb); code != 1 {
		t.Fatalf("unknown preset: exit = %d", code)
	}
	errb.Reset()
	if code := run([]string{"-preset", "hospital", "-coalesce-hold", "5ms"}, &out, &errb); code != 2 {
		t.Fatalf("-coalesce-hold without -coalesce: exit = %d", code)
	}
	if !strings.Contains(errb.String(), "-coalesce-hold requires -coalesce") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

// TestServeGracefulShutdown boots the daemon's serve loop on an
// ephemeral port, exercises the API over real HTTP, then cancels the
// context and expects a clean exit.
func TestServeGracefulShutdown(t *testing.T) {
	reg, err := newRegistry("", "hospital", 0, 0, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := indoorpath.NewServer(reg, indoorpath.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- serve(ctx, ln, srv, &out, &errb) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Venues int    `json:"venues"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Venues != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	resp, err = http.Post(base+"/v1/venues/hospital/route", "application/json",
		strings.NewReader(`{"from":{"x":30,"y":10,"floor":0},"to":{"x":5,"y":34,"floor":0},"at":"11:00"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Found bool `json:"found"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rr.Found {
		t.Fatal("route not found over the daemon")
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit = %d, stderr:\n%s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestServeCoalesced boots the daemon stack the way `itspqd -preset
// hospital -coalesce` wires it (SharedBatch pools + a coalescing
// server) and proves over real HTTP that two concurrent solo requests
// are answered out of one coalesced flush.
func TestServeCoalesced(t *testing.T) {
	// -coalesce implies -shared-batch on the pools (see run()).
	reg, err := newRegistry("", "hospital", 0, 0, false, false, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := indoorpath.NewServer(reg, indoorpath.ServerOptions{
		Coalesce:     true,
		CoalesceHold: 500 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- serve(ctx, ln, srv, &out, &errb) }()
	base := "http://" + ln.Addr().String()

	// Two concurrent solo requests, same source and departure: both
	// land in one 500ms hold window and flush together.
	type result struct {
		coalesced bool
		err       error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			body := `{"from":{"x":30,"y":10,"floor":0},"to":{"x":` +
				[]string{"5", "10"}[i] + `,"y":24,"floor":0},"at":"11:00"}`
			resp, err := http.Post(base+"/v1/venues/hospital/route", "application/json",
				strings.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var rr struct {
				Found     bool `json:"found"`
				Coalesced bool `json:"coalesced"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				results <- result{err: err}
				return
			}
			if !rr.Found {
				results <- result{err: errNotFound}
				return
			}
			results <- result{coalesced: rr.Coalesced}
		}(i)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !r.coalesced {
			t.Fatal("concurrent solo request not marked coalesced")
		}
	}

	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Venues map[string]struct {
			Methods map[string]struct {
				Coalesce struct {
					Groups  int64 `json:"coalesced_groups"`
					Answers int64 `json:"coalesced_answers"`
				} `json:"coalesce"`
			} `json:"methods"`
		} `json:"venues"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cs := sr.Venues["hospital"].Methods["asyn"].Coalesce
	if cs.Groups != 1 || cs.Answers != 2 {
		t.Fatalf("coalesce stats = %+v, want one 2-answer group", cs)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit = %d, stderr:\n%s", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

var errNotFound = errors.New("route not found over the daemon")
