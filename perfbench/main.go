// Command perfbench is the end-to-end benchmark of the itspqd daemon on
// the paper's 5-floor mall. It starts the daemon, drives one workload
// over loopback HTTP in a closed loop, checks every answer against a
// sequential engine, and prints the end-to-end metrics; with -trace 1
// it then replays the same inputs in process, layer by layer, and
// prints the per-layer metrics. README.md defines the workloads and
// every metric.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload crowd --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	indoorpath "indoorpath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number. A per-layer metric the workload does
// not exercise is not applicable: it is reported as 0 and printed as n/a.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	na    bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // path of the itspqd binary
	outDir   string // where the traced run writes its spans
	clients  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: scatter, crowd, kiosk or flips")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "path of the itspqd binary")
	fs.StringVar(&cfg.outDir, "out", ".", "directory for the traced run's span file")
	builds := fs.Int("setup-builds", 0, "run this many cold set-ups, print their times as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *builds > 0 {
		return setupBuilds(*builds, stdout, stderr)
	}
	cfg.trace = *trace == 1
	cfg.clients = runtime.NumCPU()
	if cfg.daemon == "" || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: need -daemon and -seconds >= 1")
		return 2
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(cfg config, out io.Writer) (*result, error) {
	vi, err := newVenueInfo()
	if err != nil {
		return nil, err
	}
	w, err := vi.generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	e2e, err := measure(cfg, vi, w, out)
	if err != nil {
		return nil, err
	}
	gated, info := e2e.metrics()
	res := &result{
		Correct:   e2e.verdict.failed == 0,
		Attempted: e2e.verdict.requests,
		Failed:    e2e.verdict.failed,
		Metrics:   gated,
	}
	if !cfg.trace {
		printTable(out, "end-to-end, printed only (not bounded)", info, nil)
		printTable(out, "end-to-end (daemon over loopback HTTP)", res.Metrics, nil)
		return res, nil
	}
	tr, err := traceRun(cfg, w, e2e)
	if err != nil {
		return nil, err
	}
	printTable(out, "end-to-end, printed only: untraced daemon | traced in-process replay", info, tr.e2e)
	printTable(out, "end-to-end: untraced daemon | traced in-process replay", res.Metrics, tr.e2e)
	printTable(out, "per-layer (traced in-process replay)", tr.layers, nil)
	res.Metrics = tr.layers
	return res, nil
}

// printTable prints metrics sorted by name, with an optional second
// column of the same metrics.
func printTable(out io.Writer, title string, ms, beside map[string]metric) {
	fmt.Fprintf(out, "%s:\n", title)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		switch b, ok := beside[n]; {
		case m.na:
			fmt.Fprintf(out, "  %-34s %14s %s (the workload does not exercise it)\n", n, "n/a", m.Unit)
		case ok:
			fmt.Fprintf(out, "  %-34s %14.4f | %14.4f %s\n", n, m.Value, b.Value, m.Unit)
		default:
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

// setupRuns is how many cold set-ups setup_s takes the median of, and
// setupGap the pause before each. The host's speed changes in stretches
// of tens of milliseconds (builds ran at 2.0 ms for five in a row, then
// at 3.1 ms), so the builds are spread over half a second.
const (
	setupRuns = 21
	setupGap  = 25 * time.Millisecond
)

// measureSetup times what `itspqd -preset mall` builds before it
// listens (venue model, IT-Graph, three method pools and the server)
// in a fresh process of this binary, so every run builds from the empty
// heap the daemon starts with, whatever the generator holds. It
// returns the CPU seconds of each build: CPU time leaves out the time
// the hypervisor takes the CPU away.
func measureSetup() ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-setup-builds", strconv.Itoa(setupRuns))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up builds: %w", err)
	}
	var cpu []float64
	if err := json.Unmarshal(out, &cpu); err != nil || len(cpu) != setupRuns {
		return nil, fmt.Errorf("set-up builds: unreadable output %q", out)
	}
	return cpu, nil
}

// setupBuilds is the child side of measureSetup: n cold set-ups, each
// after a collection and a pause, printed as a JSON list of CPU seconds.
func setupBuilds(n int, stdout, stderr io.Writer) int {
	cpu := make([]float64, n)
	for i := range cpu {
		runtime.GC()
		time.Sleep(setupGap)
		c0 := processCPU()
		reg := indoorpath.NewVenueRegistry(poolOptions)
		if _, err := reg.AddPresets(venueID); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		_ = indoorpath.NewServer(reg, serverOptions)
		cpu[i] = processCPU() - c0
	}
	if err := json.NewEncoder(stdout).Encode(cpu); err != nil {
		return 1
	}
	return 0
}

// goVersion is the toolchain the benchmark was built with.
func goVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return runtime.Version()
}
