package bench

import (
	"fmt"

	"indoorpath/internal/core"
	"indoorpath/internal/temporal"
)

// Paper parameter grids (Table II; defaults bold: |T|=8, δs2t=1500,
// t=12:00).
var (
	CheckpointGrid = []int{4, 8, 12, 16}
	S2TGrid        = []float64{1100, 1300, 1500, 1700, 1900}
	TimeGrid       = []temporal.TimeOfDay{
		temporal.Clock(0, 0, 0), temporal.Clock(2, 0, 0), temporal.Clock(4, 0, 0),
		temporal.Clock(6, 0, 0), temporal.Clock(8, 0, 0), temporal.Clock(10, 0, 0),
		temporal.Clock(12, 0, 0), temporal.Clock(14, 0, 0), temporal.Clock(16, 0, 0),
		temporal.Clock(18, 0, 0), temporal.Clock(20, 0, 0), temporal.Clock(22, 0, 0),
	}
	DefaultT   = 8
	DefaultS2T = 1500.0
	DefaultAt  = temporal.Clock(12, 0, 0)
)

// RunFig4 regenerates Figure 4 (search time vs |T|) with the paper's
// four series: ITG/S and ITG/A at t=12:00 and at t=8:00.
func RunFig4(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	xs := make([]string, len(CheckpointGrid))
	for i, t := range CheckpointGrid {
		xs[i] = fmt.Sprintf("%d", t)
	}
	fd := newFigure("fig4", "Search Time vs |T|", "|T|", "us",
		xs, []string{"ITG/S(t=12)", "ITG/A(t=12)", "ITG/S(t=8)", "ITG/A(t=8)"})
	for xi, tSize := range CheckpointGrid {
		tb, err := makeTestbed(cfg, tSize, cfg.scaleS2T(DefaultS2T), DefaultAt)
		if err != nil {
			return nil, fmt.Errorf("bench fig4 |T|=%d: %w", tSize, err)
		}
		qNoon := tb.atTime(temporal.Clock(12, 0, 0))
		qMorn := tb.atTime(temporal.Clock(8, 0, 0))
		for si, run := range []struct {
			opts core.Options
			qs   []core.Query
		}{
			{alg1(core.Options{Method: core.MethodSyn}), qNoon},
			{alg1(core.Options{Method: core.MethodAsyn}), qNoon},
			{alg1(core.Options{Method: core.MethodSyn}), qMorn},
			{alg1(core.Options{Method: core.MethodAsyn}), qMorn},
		} {
			m := measure(tb.graph, run.opts, run.qs, cfg.RunsPerQuery)
			fd.set(si, xi, m, m.AvgTimeUS)
		}
	}
	return fd, nil
}

// RunFig5 regenerates Figure 5 (search time vs δs2t) at the defaults
// |T|=8, t=12:00.
func RunFig5(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	xs := make([]string, len(S2TGrid))
	for i, d := range S2TGrid {
		xs[i] = fmt.Sprintf("%.0f", cfg.scaleS2T(d))
	}
	fd := newFigure("fig5", "Search Time vs δs2t", "δs2t (m)", "us",
		xs, []string{"ITG/S", "ITG/A"})
	for xi, s2t := range S2TGrid {
		tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(s2t), DefaultAt)
		if err != nil {
			return nil, fmt.Errorf("bench fig5 δ=%v: %w", s2t, err)
		}
		for si, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
			meas := measure(tb.graph, alg1(core.Options{Method: m}), tb.queries, cfg.RunsPerQuery)
			fd.set(si, xi, meas, meas.AvgTimeUS)
		}
	}
	return fd, nil
}

// RunFig6And7 regenerates Figure 6 (search time vs t) and Figure 7
// (memory cost vs t) in one sweep, as the paper varies only the query
// time over a fixed venue and query set.
func RunFig6And7(cfg Config) (timeFig, memFig *FigureData, err error) {
	cfg = cfg.normalised()
	xs := make([]string, len(TimeGrid))
	for i, at := range TimeGrid {
		xs[i] = fmt.Sprintf("%d", int(float64(at)/3600))
	}
	timeFig = newFigure("fig6", "Search Time vs t", "t (o'clock)", "us",
		xs, []string{"ITG/S", "ITG/A"})
	memFig = newFigure("fig7", "Memory Cost vs t", "t (o'clock)", "KB",
		xs, []string{"ITG/S", "ITG/A"})
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return nil, nil, fmt.Errorf("bench fig6/7: %w", err)
	}
	for xi, at := range TimeGrid {
		qs := tb.atTime(at)
		for si, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
			meas := measure(tb.graph, alg1(core.Options{Method: m}), qs, cfg.RunsPerQuery)
			timeFig.set(si, xi, meas, meas.AvgTimeUS)
			memFig.set(si, xi, meas, meas.AvgEstBytes/1024)
		}
	}
	return timeFig, memFig, nil
}

// RunAblationHeapInit compares lazy heap insertion with the literal
// "enheap every door at ∞" initialisation of Algorithm 1 (A1).
func RunAblationHeapInit(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	fd := newFigure("a1", "Heap Init: lazy vs eager (time)", "variant", "us",
		[]string{"ITG/S", "ITG/A"}, []string{"lazy", "eager"})
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return nil, err
	}
	for xi, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		lazy := measure(tb.graph, alg1(core.Options{Method: m}), tb.queries, cfg.RunsPerQuery)
		eager := measure(tb.graph, alg1(core.Options{Method: m, EagerHeapInit: true}), tb.queries, cfg.RunsPerQuery)
		fd.set(0, xi, lazy, lazy.AvgTimeUS)
		fd.set(1, xi, eager, eager.AvgTimeUS)
	}
	return fd, nil
}

// RunAblationDM compares distance-matrix lookups with on-the-fly
// Euclidean recomputation (A3).
func RunAblationDM(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	fd := newFigure("a3", "Distance source: DM vs recompute (time)", "variant", "us",
		[]string{"ITG/S"}, []string{"DM lookup", "recompute"})
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return nil, err
	}
	withDM := measure(tb.graph, alg1(core.Options{Method: core.MethodSyn}), tb.queries, cfg.RunsPerQuery)
	noDM := measure(tb.graph, alg1(core.Options{Method: core.MethodSyn, NoDistanceMatrix: true}), tb.queries, cfg.RunsPerQuery)
	fd.set(0, 0, withDM, withDM.AvgTimeUS)
	fd.set(1, 0, noDM, noDM.AvgTimeUS)
	return fd, nil
}

// RunAblationPartitionExpansion compares the exact multi-entry
// expansion (default) with the literal "visited partitions" pruning of
// Algorithm 1 line 18 (A6), reporting both time and result quality
// (average path length — the literal variant may return longer paths).
func RunAblationPartitionExpansion(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	fd := newFigure("a6", "Partition expansion: exact vs literal (time)", "variant", "us",
		[]string{"ITG/S", "ITG/A"}, []string{"exact", "literal"})
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return nil, err
	}
	for xi, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		exact := measure(tb.graph, alg1(core.Options{Method: m}), tb.queries, cfg.RunsPerQuery)
		literal := measure(tb.graph, alg1(core.Options{Method: m, SinglePartitionExpansion: true}), tb.queries, cfg.RunsPerQuery)
		fd.set(0, xi, exact, exact.AvgTimeUS)
		fd.set(1, xi, literal, literal.AvgTimeUS)
	}
	return fd, nil
}

// RunAblationGoalBound compares Route in Algorithm 1's pop order with
// its default goal-directed order (A7), reporting time and heap pops
// per query. The answers are identical; only the effort differs.
func RunAblationGoalBound(cfg Config) (*FigureData, error) {
	cfg = cfg.normalised()
	fd := newFigure("a7", "Goal bound: Algorithm 1 vs goal-directed (time, pops)", "variant", "us, pops",
		[]string{"ITG/S", "ITG/A"}, []string{"alg1 us", "goal us", "alg1 pops", "goal pops"})
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return nil, err
	}
	for xi, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
		plain := measure(tb.graph, alg1(core.Options{Method: m}), tb.queries, cfg.RunsPerQuery)
		goal := measure(tb.graph, core.Options{Method: m}, tb.queries, cfg.RunsPerQuery)
		fd.set(0, xi, plain, plain.AvgTimeUS)
		fd.set(1, xi, goal, goal.AvgTimeUS)
		fd.set(2, xi, plain, plain.AvgPops)
		fd.set(3, xi, goal, goal.AvgPops)
	}
	return fd, nil
}

// PathQualityComparison reports average path length of the exact vs
// literal expansion on one testbed (used by cmd/experiments -fig a6 and
// EXPERIMENTS.md to quantify the literal variant's suboptimality).
func PathQualityComparison(cfg Config) (exactAvg, literalAvg float64, err error) {
	cfg = cfg.normalised()
	tb, err := makeTestbed(cfg, DefaultT, cfg.scaleS2T(DefaultS2T), DefaultAt)
	if err != nil {
		return 0, 0, err
	}
	sum := func(opts core.Options) float64 {
		e := core.NewEngine(tb.graph, opts)
		total, n := 0.0, 0
		for _, q := range tb.queries {
			if p, _, _ := e.RouteOrNil(q); p != nil {
				total += p.Length
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	return sum(alg1(core.Options{Method: core.MethodSyn})),
		sum(alg1(core.Options{Method: core.MethodSyn, SinglePartitionExpansion: true})), nil
}

// RunAblationFloors measures search time as the venue grows (A5).
func RunAblationFloors(cfg Config, floors []int) (*FigureData, error) {
	cfg = cfg.normalised()
	if len(floors) == 0 {
		floors = []int{1, 3, 5, 7}
	}
	xs := make([]string, len(floors))
	for i, f := range floors {
		xs[i] = fmt.Sprintf("%d", f)
	}
	fd := newFigure("a5", "Search Time vs floors", "floors", "us",
		xs, []string{"ITG/S", "ITG/A"})
	for xi, f := range floors {
		sub := cfg
		sub.Floors = f
		sub.Quick = false
		tb, err := makeTestbed(sub, DefaultT, sub.scaleS2T(DefaultS2T), DefaultAt)
		if err != nil {
			return nil, fmt.Errorf("bench a5 floors=%d: %w", f, err)
		}
		for si, m := range []core.Method{core.MethodSyn, core.MethodAsyn} {
			meas := measure(tb.graph, alg1(core.Options{Method: m}), tb.queries, cfg.RunsPerQuery)
			fd.set(si, xi, meas, meas.AvgTimeUS)
		}
	}
	return fd, nil
}
