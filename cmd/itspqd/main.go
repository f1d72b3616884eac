// Command itspqd is the ITSPQ query daemon: an HTTP/JSON server
// answering indoor shortest-path queries over one or more venues, with
// live door-schedule updates.
//
// Usage:
//
//	itspqd -preset hospital,office                 # built-in venues
//	itspqd -venues ./venues                        # every *.json in a dir
//	itspqd -addr :9000 -preset mall -workers 8     # tuned
//	itspqd -preset mall -coalesce -coalesce-hold 2ms   # cross-request coalescing
//
// -coalesce holds each solo route request for up to -coalesce-hold and
// flushes the accumulated queries as ONE shared-execution batch, so
// shareable singletons arriving on separate requests (same source and
// departure, or static shared destination) cost one engine run
// together instead of one each. It implies -shared-batch.
//
// -skeleton-cache enables the point-free answer layer: a miss on a
// partition pair the pool has seen before stores the pair's
// door-to-door skeleton family (a pair queried once builds none), and
// any later query between the same partitions — different
// points, different departure inside the checkpoint slot — is answered
// by composing first leg + skeleton + last leg ("hit":"skeleton"),
// bit-identical to a fresh engine search or not served at all.
//
// Endpoints (see the package documentation of indoorpath for request
// and response bodies):
//
//	GET  /healthz
//	GET  /buildz
//	GET  /statsz    (filters: ?venue= ?method=)
//	GET  /metricsz
//	GET  /tracez    (filters: ?venue= ?method= ?min_ms= ?outcome=)
//	GET  /v1/venues
//	POST /v1/venues
//	POST /v1/venues/{id}/route
//	POST /v1/venues/{id}/route:batch
//	GET  /v1/venues/{id}/profile?from=x,y,floor&to=x,y,floor
//	PUT  /v1/venues/{id}/schedules
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — deliberately a separate mux and port, so profiling
// never ships with the public API.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests get ShutdownGrace to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	indoorpath "indoorpath"
)

// ShutdownGrace bounds how long in-flight requests may run after a
// termination signal.
const ShutdownGrace = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itspqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		venues  = fs.String("venues", "", "directory of venue JSON files (id = file name)")
		presets = fs.String("preset", "", "comma-separated built-in venues: mall, hospital, office, figure1")
		workers = fs.Int("workers", 0, "batch fan-out goroutines per venue pool (0 = GOMAXPROCS)")
		cache   = fs.Int("cache", 0, "result-cache capacity per pool (0 = default, negative = disabled)")
		window  = fs.Bool("window-cache", false, "enable the validity-window temporal result cache (cross-time cache hits)")
		skel    = fs.Bool("skeleton-cache", false, "enable the door-to-door skeleton store (cross-point cache hits: a miss on a partition pair seen before stores its family, and later queries for any points of the pair compose from it)")
		shared  = fs.Bool("shared-batch", false, "enable the shared-execution batch planner (one engine run answers each same-endpoint batch group)")
		coal    = fs.Bool("coalesce", false, "coalesce concurrent solo route requests into shared engine runs (implies -shared-batch)")
		hold    = fs.Duration("coalesce-hold", 0, "coalescer accumulation window (0 = 2ms default); solo requests wait at most this long for company")
		timeout = fs.Duration("timeout", 0, "per-request timeout (0 = server default, negative = none)")
		debug   = fs.String("debug-addr", "", "optional second listen address serving net/http/pprof (e.g. 127.0.0.1:6060); kept off the serving mux so profiling is never exposed with the API")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "itspqd: "+format+"\n", a...)
		return 1
	}
	if *venues == "" && *presets == "" {
		fmt.Fprintln(stderr, "itspqd: need -venues and/or -preset")
		fs.Usage()
		return 2
	}
	if *hold != 0 && !*coal {
		fmt.Fprintln(stderr, "itspqd: -coalesce-hold requires -coalesce")
		return 2
	}

	// Coalescing flushes through the batch planner; without SharedBatch
	// on the pools a flush could only deduplicate, not share runs.
	reg, err := newRegistry(*venues, *presets, *workers, *cache, *window, *skel, *shared || *coal)
	if err != nil {
		return fail("%v", err)
	}
	// The -venues directory doubles as the base for hot reloads (POST
	// /v1/venues {"dir": ...}); without it, only preset reloads work.
	srv := indoorpath.NewServer(reg, indoorpath.ServerOptions{
		RequestTimeout: *timeout,
		VenueDirBase:   *venues,
		Coalesce:       *coal,
		CoalesceHold:   *hold,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "itspqd: serving %s on http://%s\n",
		strings.Join(reg.IDs(), ", "), ln.Addr())

	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			ln.Close()
			return fail("debug listener: %v", err)
		}
		defer dln.Close()
		fmt.Fprintf(stdout, "itspqd: debug (pprof) on http://%s/debug/pprof/\n", dln.Addr())
		go func() { _ = http.Serve(dln, debugMux()) }()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, srv, stdout, stderr)
}

// debugMux builds the profiling mux for -debug-addr. The handlers are
// registered explicitly on a dedicated mux — importing net/http/pprof
// for its side effect would hang them on http.DefaultServeMux, which
// the serving listener must never pick up.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// newRegistry loads the requested venues into a fresh registry.
func newRegistry(venuesDir, presets string, workers, cache int, window, skeleton, shared bool) (*indoorpath.VenueRegistry, error) {
	reg := indoorpath.NewVenueRegistry(indoorpath.PoolOptions{
		Workers:       workers,
		CacheCapacity: cache,
		WindowCache:   window,
		SkeletonCache: skeleton,
		SharedBatch:   shared,
	})
	if presets != "" {
		if _, err := reg.AddPresets(presets); err != nil {
			return nil, err
		}
	}
	if venuesDir != "" {
		if _, err := reg.LoadDir(venuesDir); err != nil {
			return nil, err
		}
	}
	if reg.Len() == 0 {
		return nil, errors.New("no venues loaded")
	}
	return reg, nil
}

// serve runs the HTTP server until ctx is cancelled, then drains
// in-flight requests for up to ShutdownGrace.
func serve(ctx context.Context, ln net.Listener, h http.Handler, stdout, stderr io.Writer) int {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "itspqd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "itspqd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "itspqd: shutdown: %v\n", err)
		return 1
	}
	return 0
}
