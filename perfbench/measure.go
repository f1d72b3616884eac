package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"indoorpath/internal/server"
	"indoorpath/internal/service"
)

// e2eRun is the untraced run of one workload against the daemon.
type e2eRun struct {
	setup     []float64 // CPU seconds of each cold set-up
	reqs      []request // the measured requests that were sent
	recs      []sent
	elapsed   time.Duration
	windows   int           // one-second windows in the measured phase
	cpuS      float64       // daemon CPU over the measured phase
	clientS   float64       // generator CPU over the measured phase
	steal     float64       // the host's CPU steal over the phase, a share of all CPU time
	rssAt     []float64     // daemon resident set readings, MiB
	rssMB     float64       // daemon peak resident set at the end of the phase
	updateMs  []float64     // the update probe's latencies
	updateCPU float64       // daemon CPU over the update probe
	delta     service.Stats // /statsz movement over the measured phase, summed over methods
	verdict   *verdict
}

func (e *e2eRun) readLatencies() []float64 {
	var ms []float64
	for i := range e.recs {
		if e.reqs[i].kind != kindUpdate {
			ms = append(ms, float64(e.recs[i].latency)/float64(time.Millisecond))
		}
	}
	return ms
}

// window is the slice of the measured phase that qps and p50_ms are
// computed over; each reports the median over the phase's windows, so a
// burst of CPU steal that slows a few windows does not move it.
const window = time.Second

// clientRefMs is the generator CPU per request that the host correction
// scales to (see hostFactor).
const clientRefMs = 0.2

// hostFactor corrects the daemon's CPU figures for how busy the host
// is. The CPU time the kernel charges for the same work rises when
// other guests load the host: with steal at 20-35% of the phase, the
// daemon's CPU per answer rose by up to 50%, and the generator's CPU
// per request, which does the client half of the same exchanges at the
// same moments, rose with it. Neither the daemon's idle CPU (zero) nor
// its throughput explains the rise; see README.md. The daemon's CPU per
// answer and per update are therefore reported as if the generator had
// spent clientRefMs per request.
func (e *e2eRun) hostFactor() float64 {
	return clientRefMs / e.clientMsPerRequest()
}

func (e *e2eRun) clientMsPerRequest() float64 {
	return e.clientS * 1000 / float64(len(e.reqs))
}

// metrics are the end-to-end metrics BENCHMARK.json declares, and info
// the ones printed beside them that vary too much on a shared host to
// bound a change by (see README.md).
func (e *e2eRun) metrics() (gated, info map[string]metric) {
	n := e.windows
	answers := make([]float64, n)
	lat := make([][]float64, n)
	for i := range e.recs {
		r := &e.recs[i]
		k := int((r.start + r.latency) / window)
		if e.reqs[i].kind == kindUpdate || k >= n || r.status != 200 {
			continue
		}
		answers[k] += float64(e.reqs[i].answers())
		lat[k] = append(lat[k], float64(r.latency)/float64(time.Millisecond))
	}
	var qps, p50 []float64
	for k := 0; k < n; k++ {
		if answers[k] == 0 {
			continue
		}
		qps = append(qps, answers[k]/window.Seconds())
		p50 = append(p50, median(lat[k]))
	}
	all := e.readLatencies()
	f := e.hostFactor()
	gated = map[string]metric{
		"setup_s":          {Value: median(e.setup), Unit: "s"},
		"cpu_ms_per_query": {Value: e.cpuS * 1000 / float64(e.verdict.answers) * f, Unit: "ms"},
		"rss_mb":           {Value: median(e.rssAt), Unit: "MB"},
		"update_cpu_ms":    {Value: e.updateCPU * 1000 / probeUpdates * f, Unit: "ms"},
	}
	info = map[string]metric{
		"p50_ms":      {Value: median(p50), Unit: "ms"},
		"qps":         {Value: median(qps), Unit: "queries/s"},
		"p99_ms":      {Value: quantile(all, 0.99), Unit: "ms"},
		"update_ms":   {Value: quantile(pairMeans(e.updateMs), 0.25), Unit: "ms"},
		"peak_rss_mb": {Value: e.rssMB, Unit: "MB"},
		"error_rate":  {Value: float64(e.verdict.failed) / float64(max(1, e.verdict.requests)), Unit: "fraction"},
	}
	return gated, info
}

// measure runs the untraced phase: set-up timing, daemon start,
// warm-up, the measured closed loop, the update probe, and the check of
// every answer.
func measure(cfg config, vi *venueInfo, w *workload, out io.Writer) (*e2eRun, error) {
	setup, err := measureSetup()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.daemon)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ld := newLoader(d.base, cfg.clients)
	defer ld.close()

	_, warmRecs, _ := ld.closedLoop(fromSlice(w.warm), cfg.clients, time.Time{}, nil)
	before, err := statsz(ld.client, d.base)
	if err != nil {
		return nil, err
	}
	// The measured stream is rendered ahead of the clients: a buffer's
	// worth before timing, the rest by one producer as they take it.
	feed := make(chan numbered, streamAhead)
	for i := 0; i < streamAhead; i++ {
		feed <- numbered{i, w.stream.take()}
	}
	// The generator's CPU per request is the host correction's
	// reference; collecting less often keeps its own heap out of it.
	gcPercent := debug.SetGCPercent(generatorGCPercent)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	total0, steal0 := cpuTimes()
	client0 := processCPU()
	stop, produced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(produced)
		for i := streamAhead; ; i++ {
			select {
			case feed <- numbered{i, w.stream.take()}:
			case <-stop:
				return
			}
		}
	}()
	// The resident set is read after every rssEvery-th answered request
	// up to rssLast: scatter's caches grow with every answer, so readings
	// at fixed times would follow throughput.
	var rssMu sync.Mutex
	var rssAt []float64
	reqs, recs, elapsed := ld.closedLoop(feed, cfg.clients, time.Now().Add(time.Duration(cfg.seconds)*time.Second), func(i int) {
		if i%rssEvery != 0 || i > rssLast {
			return
		}
		if mb, err := procStatusMB(d.cmd.Process.Pid, "VmRSS:"); err == nil {
			rssMu.Lock()
			rssAt = append(rssAt, mb)
			rssMu.Unlock()
		}
	})
	close(stop)
	<-produced
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	total1, steal1 := cpuTimes()
	client1 := processCPU()
	debug.SetGCPercent(gcPercent)
	after, err := statsz(ld.client, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "inputs: %d warm-up requests, fingerprint %s; %d measured requests sent, fingerprint %s (of the first %d: %s)\n",
		len(w.warm), fingerprint(w.warm), len(reqs), fingerprint(reqs), fingerprintHead, fingerprint(reqs[:min(len(reqs), fingerprintHead)]))
	rssMu.Lock()
	e := &e2eRun{setup: setup, reqs: reqs, recs: recs, elapsed: elapsed, windows: cfg.seconds,
		cpuS: cpu1 - cpu0, clientS: client1 - client0, rssAt: rssAt, rssMB: rss, delta: statsDelta(before, after)}
	if total1 > total0 {
		e.steal = (steal1 - steal0) / (total1 - total0)
	}
	rssMu.Unlock()

	// The update probe sends a fixed series of updates once the reads
	// are done, spaced out so the daemon is idle between them: its CPU
	// over the timed updates, collections included, is their cost. The
	// untimed first ones drop the read phase's caches, whose size
	// differs by workload. The updates flips races against its reads are
	// printed beside it.
	var raced []float64
	for i := range e.recs {
		if e.reqs[i].kind == kindUpdate {
			raced = append(raced, float64(e.recs[i].latency)/float64(time.Millisecond))
		}
	}
	var probe []request
	var probeRecs []sent
	var buf bytes.Buffer
	var upd0 float64
	for i := 0; i < probeWarmUpdates+probeUpdates; i++ {
		time.Sleep(probeGap)
		if i == probeWarmUpdates {
			if upd0, err = d.cpuSeconds(); err != nil {
				return nil, err
			}
		}
		probe = append(probe, w.updates[i%2])
		s := ld.send(&probe[i], time.Now(), &buf)
		probeRecs = append(probeRecs, s)
		if i >= probeWarmUpdates {
			e.updateMs = append(e.updateMs, float64(s.latency)/float64(time.Millisecond))
		}
	}
	time.Sleep(probeGap)
	upd1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	e.updateCPU = upd1 - upd0
	if len(raced) > 0 {
		fmt.Fprintf(out, "updates racing the reads: %d, median %.3f ms\n", len(raced), median(raced))
	}
	bz, err := buildz(ld.client, d.base)
	if err != nil {
		return nil, err
	}
	d.stop()

	o, err := newOracle(vi, w.flipDoors)
	if err != nil {
		return nil, err
	}
	// One pass over warm-up, measured and probe requests, so the
	// oracle solves a query that recurs across them once.
	t0 := time.Now()
	phases := verify(o, ld.store, [][]request{w.warm, e.reqs, probe}, [][]sent{warmRecs, e.recs, probeRecs}, cfg.clients)
	warmV, probeV := phases[0], phases[2]
	e.verdict = phases[1]
	verifySec := time.Since(t0).Seconds()

	commit := bz.Build.Revision
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	daemonProcs := 0
	if after.Process != nil {
		daemonProcs = after.Process.GOMAXPROCS
	}
	fmt.Fprintf(out, "environment: nproc %d, GOMAXPROCS generator %d daemon %d, go %s (daemon %s), commit %s, cpu steal %.1f%% of the measured phase\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), daemonProcs, goVersion(), bz.Build.GoVersion, commit, 100*e.steal)
	v := e.verdict
	lat := e.readLatencies()
	fmt.Fprintf(out, "measured phase: %.2fs, %d requests (%d reads), %d answers verified in %.1fs (%d exact-tie), %d wrong, %d failed requests; p99 from %d samples (%d beyond it)\n",
		elapsed.Seconds(), len(recs), len(lat), v.answers, verifySec, v.ties, v.wrong, v.failed, len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	fmt.Fprintf(out, "served as: %v; error_rate %.6f (warm-up failures %d, probe-update failures %d)\n",
		v.hits, float64(v.failed)/float64(max(1, v.requests)), warmV.failed, probeV.failed)
	for _, s := range append(append(v.samples, warmV.samples...), probeV.samples...) {
		fmt.Fprintf(out, "  FAIL %s\n", s)
	}
	fmt.Fprintf(out, "host correction: generator CPU %.1f us per request, factor %.4f; uncorrected daemon CPU %.4f ms per answer, %.4f ms per update\n",
		1000*e.clientMsPerRequest(), e.hostFactor(), e.cpuS*1000/float64(max(1, v.answers)), e.updateCPU*1000/probeUpdates)
	if st := e.delta; st.Queries > 0 {
		fmt.Fprintf(out, "daemon /statsz over the phase: %d queries, %.4f searches/query, exact %.3f window %.3f skeleton %.3f dedup %.3f\n",
			st.Queries, ratio(st.EngineSearches, st.Queries), ratio(st.CacheHits, st.Queries),
			ratio(st.WindowHits, st.Queries), ratio(st.SkeletonHits, st.Queries), ratio(st.Deduped, st.Queries))
	}
	v.failed += warmV.failed + probeV.failed
	v.requests += len(warmRecs) + len(probeRecs)
	return e, nil
}

// pairMeans averages consecutive close and reopen updates: closing
// doors costs more than reopening them, and the median of a two-mode
// sample would fall between the modes.
func pairMeans(ms []float64) []float64 {
	var out []float64
	for i := 0; i+1 < len(ms); i += 2 {
		out = append(out, (ms[i]+ms[i+1])/2)
	}
	return out
}

// rssEvery and rssLast place the resident-set readings: after every
// rssEvery-th measured request up to request rssLast.
const (
	rssEvery = 100
	rssLast  = 1000
)

// fingerprintHead is the length of the measured prefix every run
// fingerprints, so runs of one seed that sent different numbers of
// requests can be shown to have sent the same stream.
const fingerprintHead = 1000

// generatorGCPercent is the generator's GOGC over the measured phase.
const generatorGCPercent = 400

// streamAhead is how many measured requests are rendered ahead of the
// clients: about half a second of the fastest workload (kiosk), so the
// clients never wait for the producer.
const streamAhead = 1024

// probeGap is the pause before each update of the post-phase probe.
const probeGap = 25 * time.Millisecond

// statsDelta sums the venue's per-method counter movement.
func statsDelta(before, after *server.StatsResponse) service.Stats {
	var s service.Stats
	b, a := before.Venues[venueID], after.Venues[venueID]
	for m, am := range a.Methods {
		bm := b.Methods[m]
		s.Queries += am.Queries - bm.Queries
		s.EngineSearches += am.EngineSearches - bm.EngineSearches
		s.CacheHits += am.CacheHits - bm.CacheHits
		s.WindowHits += am.WindowHits - bm.WindowHits
		s.SkeletonHits += am.SkeletonHits - bm.SkeletonHits
		s.Deduped += am.Deduped - bm.Deduped
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the q-quantile of xs by the nearest-rank rule; 0 for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
