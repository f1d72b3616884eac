package bench

import (
	"strings"
	"testing"

	"indoorpath/internal/core"
	"indoorpath/internal/temporal"
)

func quickCfg() Config {
	return Config{Quick: true, Seed: 42}
}

func TestMakeTestbed(t *testing.T) {
	tb, err := makeTestbed(quickCfg().normalised(), 8, 750, DefaultAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.queries) != 3 {
		t.Fatalf("queries = %d", len(tb.queries))
	}
	qs := tb.atTime(temporal.Clock(8, 0, 0))
	if qs[0].At != temporal.Clock(8, 0, 0) {
		t.Error("atTime did not retime")
	}
	if tb.queries[0].At != DefaultAt {
		t.Error("atTime must not mutate the original")
	}
}

func TestMeasure(t *testing.T) {
	cfg := quickCfg().normalised()
	tb, err := makeTestbed(cfg, 8, 750, DefaultAt)
	if err != nil {
		t.Fatal(err)
	}
	m := measure(tb.graph, core.Options{Method: core.MethodSyn}, tb.queries, 2)
	if m.Total != len(tb.queries)*2 {
		t.Errorf("total = %d", m.Total)
	}
	if m.Found == 0 {
		t.Error("no queries answered at noon")
	}
	if m.AvgTimeUS <= 0 || m.AvgEstBytes <= 0 || m.AvgPops <= 0 {
		t.Errorf("bad measurement: %+v", m)
	}
	if m.Method != "ITG/S" {
		t.Errorf("method = %q", m.Method)
	}
}

func TestRunFig4Quick(t *testing.T) {
	fd, err := RunFig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Xs) != 4 || len(fd.Series) != 4 {
		t.Fatalf("fig4 shape: %d xs, %d series", len(fd.Xs), len(fd.Series))
	}
	for _, s := range fd.Series {
		for i, y := range s.Ys {
			if y <= 0 {
				t.Errorf("series %s point %d non-positive: %v", s.Name, i, y)
			}
		}
	}
}

func TestRunFig5Quick(t *testing.T) {
	fd, err := RunFig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Xs) != 5 || len(fd.Series) != 2 {
		t.Fatalf("fig5 shape: %d xs, %d series", len(fd.Xs), len(fd.Series))
	}
}

func TestRunFig6And7Quick(t *testing.T) {
	f6, f7, err := RunFig6And7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Xs) != 12 || len(f7.Xs) != 12 {
		t.Fatalf("fig6/7 xs: %d, %d", len(f6.Xs), len(f7.Xs))
	}
	// Shape check: midnight searches must be cheaper than noon searches
	// (temporal doors all closed → tiny reachable graph). Fig. 6 plots
	// wall-clock times, which CPU contention can reorder, so its shape
	// is read off the same cells' heap pops, which are deterministic;
	// Fig. 7 plots the deterministic working-set model.
	for si, s := range f6.Series {
		night := f6.Cells[si][0].AvgPops // 0:00
		noon := f6.Cells[si][6].AvgPops  // 12:00
		if night >= noon {
			t.Errorf("%s %s: night %.1f >= noon %.1f pops — plateau shape violated",
				f6.ID, s.Name, night, noon)
		}
	}
	for _, s := range f7.Series {
		night := s.Ys[0] // 0:00
		noon := s.Ys[6]  // 12:00
		if night >= noon {
			t.Errorf("%s %s: night %.1f >= noon %.1f — plateau shape violated",
				f7.ID, s.Name, night, noon)
		}
	}
	// Memory unit sanity: noon working set within 1KB..100MB.
	noonMem := f7.Series[0].Ys[6]
	if noonMem < 1 || noonMem > 100*1024 {
		t.Errorf("noon memory = %v KB out of sane range", noonMem)
	}
}

func TestAblations(t *testing.T) {
	if _, err := RunAblationHeapInit(quickCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAblationDM(quickCfg()); err != nil {
		t.Fatal(err)
	}
	fd, err := RunAblationFloors(quickCfg(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Xs) != 2 {
		t.Fatalf("a5 xs = %d", len(fd.Xs))
	}
	if fd, err = RunAblationGoalBound(quickCfg()); err != nil {
		t.Fatal(err)
	}
	for xi, x := range fd.Xs {
		plain, goal := fd.Cells[2][xi], fd.Cells[3][xi]
		if goal.Found != plain.Found || goal.AvgPops >= plain.AvgPops {
			t.Errorf("a7 %s: goal bound found %d with %.1f pops, Algorithm 1 %d with %.1f",
				x, goal.Found, goal.AvgPops, plain.Found, plain.AvgPops)
		}
	}
}

func TestRenderers(t *testing.T) {
	fd := newFigure("figX", "Demo", "x", "us", []string{"1", "2"}, []string{"A", "B"})
	fd.set(0, 0, Measurement{AvgTimeUS: 1}, 1234.5)
	fd.set(0, 1, Measurement{}, 12.34)
	fd.set(1, 0, Measurement{}, 0.5)
	fd.set(1, 1, Measurement{}, 99)
	table := RenderTable(fd)
	if !strings.Contains(table, "FIGX") || !strings.Contains(table, "1234") {
		t.Errorf("table rendering:\n%s", table)
	}
	csv := RenderCSV(fd)
	if !strings.HasPrefix(csv, "x,A,B\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1,1234.5,0.5") {
		t.Errorf("csv body: %q", csv)
	}
	if s := Summary(fd); !strings.Contains(s, "figX") {
		t.Errorf("summary: %q", s)
	}
	if csvEscape(`a,"b`) != `"a,""b"` {
		t.Error("csv escaping")
	}
}
