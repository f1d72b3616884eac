// Command experiments regenerates the paper's evaluation figures
// (Liu et al., ICDE 2020, Section III) on this machine and prints the
// data series in tabular form.
//
// Usage:
//
//	experiments                 # all four figures at paper scale
//	experiments -fig 4          # Figure 4 only
//	experiments -fig a1         # ablation: lazy vs eager heap init
//	experiments -fig a7         # ablation: Algorithm 1 vs goal bound
//	experiments -quick          # reduced scale (smoke test)
//	experiments -csv            # machine-readable output
//	experiments -runs 10 -queries 5 -floors 5 -seed 42
//
// Figures: 4 (time vs |T|), 5 (time vs δs2t), 6 (time vs t),
// 7 (memory vs t). Ablations: a1 (heap init), a3 (distance matrix),
// a5 (floors), a6 (partition expansion, with path quality) and a7
// (Route's pop order: Algorithm 1 vs the goal bound, time and pops).
// Every figure and ablation but a7 measures Algorithm 1's pop order.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"indoorpath/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig     = flag.String("fig", "all", "all | 4 | 5 | 6 | 7 | a1 | a3 | a5 | a6 | a7")
		quick   = flag.Bool("quick", false, "reduced scale for smoke testing")
		floors  = flag.Int("floors", 5, "mall floors")
		queries = flag.Int("queries", 5, "query instances per setting")
		runs    = flag.Int("runs", 10, "repetitions per query instance")
		seed    = flag.Int64("seed", 42, "generation seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables")
		diag    = flag.Bool("diag", false, "append per-cell diagnostics")
	)
	flag.Parse()

	cfg := bench.Config{
		Floors:       *floors,
		QueryCount:   *queries,
		RunsPerQuery: *runs,
		Seed:         *seed,
		Quick:        *quick,
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }
	emit := func(fd *bench.FigureData) {
		if *csv {
			fmt.Printf("# %s\n%s\n", fd.ID, bench.RenderCSV(fd))
		} else {
			fmt.Println(bench.RenderTable(fd))
		}
		if *diag {
			fmt.Println(bench.Summary(fd))
		}
	}

	ran := false
	if want("4") {
		fd, err := bench.RunFig4(cfg)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if want("5") {
		fd, err := bench.RunFig5(cfg)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if want("6") || want("7") {
		f6, f7, err := bench.RunFig6And7(cfg)
		exitOn(err)
		if want("6") {
			emit(f6)
		}
		if want("7") {
			emit(f7)
		}
		ran = true
	}
	if want("a1") {
		fd, err := bench.RunAblationHeapInit(cfg)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if want("a3") {
		fd, err := bench.RunAblationDM(cfg)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if want("a6") {
		fd, err := bench.RunAblationPartitionExpansion(cfg)
		exitOn(err)
		emit(fd)
		exactLen, literalLen, err := bench.PathQualityComparison(cfg)
		exitOn(err)
		fmt.Printf("avg path length: exact %.1f m, literal %.1f m (+%.2f%%)\n\n",
			exactLen, literalLen, 100*(literalLen-exactLen)/exactLen)
		ran = true
	}
	if want("a5") {
		var fls []int
		if *quick {
			fls = []int{1, 2}
		} else {
			fls = []int{1, 3, 5, 7}
		}
		fd, err := bench.RunAblationFloors(cfg, fls)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if want("a7") {
		fd, err := bench.RunAblationGoalBound(cfg)
		exitOn(err)
		emit(fd)
		ran = true
	}
	if !ran {
		log.Fatalf("unknown -fig %q (want all, 4, 5, 6, 7, a1, a3, a5, a6, a7)", *fig)
	}
	if !*csv {
		fmt.Fprintln(os.Stderr, strings.TrimSpace(`
Note: absolute numbers depend on this machine; compare the *shapes*
against the paper (see EXPERIMENTS.md for the recorded comparison).`))
	}
}

func exitOn(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
