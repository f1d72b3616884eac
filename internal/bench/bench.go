// Package bench is the experiment harness that regenerates every figure
// of the paper's evaluation (Liu et al., ICDE 2020, Section III): search
// time vs |T| (Fig. 4), vs δs2t (Fig. 5), vs query time t (Fig. 6), and
// memory cost vs t (Fig. 7), plus the ablation studies documented in
// DESIGN.md. It is consumed by cmd/experiments and by the testing.B
// benchmarks in the repository root.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"indoorpath/internal/core"
	"indoorpath/internal/dmat"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// Config controls venue scale and measurement effort. The zero value
// reproduces the paper's defaults.
type Config struct {
	// Floors of the synthetic mall (paper default 5).
	Floors int
	// QueryCount is the number of query instances per setting (paper: 5).
	QueryCount int
	// RunsPerQuery is how often each instance is repeated (paper: 10).
	RunsPerQuery int
	// Seed drives venue and query generation.
	Seed int64
	// Quick shrinks the workload (1 floor, 3 queries, 3 runs) for smoke
	// tests and CI.
	Quick bool
}

func (c Config) normalised() Config {
	if c.Floors == 0 {
		c.Floors = 5
	}
	if c.QueryCount == 0 {
		c.QueryCount = 5
	}
	if c.RunsPerQuery == 0 {
		c.RunsPerQuery = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Quick {
		c.Floors = 1
		c.QueryCount = 3
		c.RunsPerQuery = 3
	}
	return c
}

// maxS2T returns a δs2t feasible for the venue scale (single-floor quick
// runs cannot host 1900 m paths comfortably, so sweeps shrink).
func (c Config) scaleS2T(s2t float64) float64 {
	if c.Floors >= 2 {
		return s2t
	}
	return s2t * 0.5
}

// Measurement aggregates one (method, setting) cell.
type Measurement struct {
	Method string
	// AvgTimeUS is the mean per-query wall time in microseconds.
	AvgTimeUS float64
	// AvgAllocBytes is the mean per-query heap allocation (runtime
	// TotalAlloc delta).
	AvgAllocBytes float64
	// AvgEstBytes is the mean per-query modelled working set
	// (SearchStats.BytesEstimate), the deterministic Fig. 7 metric.
	AvgEstBytes float64
	// Found / Total count answered vs issued queries.
	Found, Total int
	// AvgPops/AvgChecks characterise search effort.
	AvgPops, AvgChecks float64
}

// alg1 sets Algorithm 1's pop order (core.Options.NoGoalBound): the
// figures and ablations A1–A6 measure the paper's search, whose effort
// counters Route's goal-directed order would change.
func alg1(opts core.Options) core.Options {
	opts.NoGoalBound = true
	return opts
}

// measure runs every query RunsPerQuery times on a fresh engine and
// averages. One untimed warmup pass absorbs lazily built snapshots
// (Graph_Update amortises across queries in the paper's asynchronous
// design) and allocator warmup.
func measure(g *itgraph.Graph, opts core.Options, qs []core.Query, runs int) Measurement {
	e := core.NewEngine(g, opts)
	for _, q := range qs {
		if _, _, err := e.RouteOrNil(q); err != nil {
			// Surfacing engine misuse loudly beats silently timing noise.
			panic(fmt.Sprintf("bench: warmup query failed: %v", err))
		}
	}
	m := Measurement{Method: e.MethodName()}
	// Settle the heap so venue-construction garbage is not collected
	// inside the timed section.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc

	// Three timed passes; the fastest one is reported, suppressing GC
	// pauses and scheduler noise at the microsecond scale.
	const passes = 3
	best := time.Duration(1<<62 - 1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		for r := 0; r < runs; r++ {
			for _, q := range qs {
				e.RouteOrNil(q)
			}
		}
		if elapsed := time.Since(start); elapsed < best {
			best = elapsed
		}
	}
	runtime.ReadMemStats(&ms)
	// One counting pass (untimed) for the work metrics.
	for r := 0; r < runs; r++ {
		for _, q := range qs {
			p, st, _ := e.RouteOrNil(q)
			m.Total++
			if p != nil {
				m.Found++
			}
			m.AvgEstBytes += float64(st.BytesEstimate)
			m.AvgPops += float64(st.Pops)
			m.AvgChecks += float64(st.Checker.Checks)
		}
	}
	n := float64(m.Total)
	m.AvgTimeUS = float64(best.Microseconds()) / n
	m.AvgAllocBytes = float64(ms.TotalAlloc-allocBefore) / n / passes
	m.AvgEstBytes /= n
	m.AvgPops /= n
	m.AvgChecks /= n
	return m
}

// Series is one line of a figure.
type Series struct {
	Name string
	Ys   []float64
}

// FigureData is a regenerated figure: x tick labels and one or more
// series, with the measurement unit recorded.
type FigureData struct {
	ID     string
	Title  string
	XLabel string
	Unit   string
	Xs     []string
	Series []Series
	// Cells holds the full measurements, indexed [series][x].
	Cells [][]Measurement
}

// newFigure allocates a figure shell.
func newFigure(id, title, xlabel, unit string, xs []string, seriesNames []string) *FigureData {
	fd := &FigureData{ID: id, Title: title, XLabel: xlabel, Unit: unit, Xs: xs}
	for _, n := range seriesNames {
		fd.Series = append(fd.Series, Series{Name: n, Ys: make([]float64, len(xs))})
		fd.Cells = append(fd.Cells, make([]Measurement, len(xs)))
	}
	return fd
}

func (fd *FigureData) set(si, xi int, m Measurement, y float64) {
	fd.Series[si].Ys[xi] = y
	fd.Cells[si][xi] = m
}

// buildVenue generates the mall for a given |T| and wraps it in an
// IT-Graph plus generated queries.
type testbed struct {
	mall    *synth.Mall
	graph   *itgraph.Graph
	queries []core.Query
}

func makeTestbed(cfg Config, tSize int, s2t float64, at temporal.TimeOfDay) (*testbed, error) {
	m, err := synth.GenerateMall(synth.MallConfig{
		Floors: cfg.Floors,
		Seed:   cfg.Seed,
		ATI:    synth.ATIConfig{CheckpointCount: tSize, Seed: cfg.Seed + 1},
	})
	if err != nil {
		return nil, err
	}
	dm, err := dmat.Build(m.Venue)
	if err != nil {
		return nil, err
	}
	qis, err := synth.GenerateQueries(m, dm, synth.QueryConfig{
		S2T: s2t, Count: cfg.QueryCount, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	g, err := itgraph.New(m.Venue)
	if err != nil {
		return nil, err
	}
	tb := &testbed{mall: m, graph: g}
	for _, qi := range qis {
		tb.queries = append(tb.queries, core.Query{Source: qi.Source, Target: qi.Target, At: at})
	}
	return tb, nil
}

// atTime returns a copy of the query set with a different query time.
func (tb *testbed) atTime(at temporal.TimeOfDay) []core.Query {
	out := make([]core.Query, len(tb.queries))
	for i, q := range tb.queries {
		q.At = at
		out[i] = q
	}
	return out
}
