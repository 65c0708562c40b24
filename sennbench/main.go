// Command sennbench is the repository's end-to-end benchmark. It runs one
// workload, checks every answer, and prints each metric by name and unit;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"qps": {"value": ..., "unit": "req/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans and reports the per-layer metrics. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	sennbench -root . -daemon .bench_build/bin/senn-serverd -workload serve-share -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// runEnv is what every workload needs from the command line.
type runEnv struct {
	root      string
	daemonBin string
	work      string
	nproc     int
}

// report collects one run's outcome.
type report struct {
	workload  string
	seed      int64
	traced    bool
	params    any
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string
	tracers   []*tracer
}

func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	// A signal kills the daemon children before the process goes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		stopAllChildren()
		fmt.Fprintf(os.Stderr, "sennbench: %v: daemons stopped\n", s)
		os.Exit(130)
	}()
	code := run()
	stopAllChildren()
	os.Exit(code)
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository checkout to benchmark")
		daemon   = flag.String("daemon", "", "senn-serverd binary built from the checkout")
		workload = flag.String("workload", "", "serve-share, sim-la30, or all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "timed window length")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := checkCatalog(); err != nil {
		fmt.Fprintln(os.Stderr, "sennbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sennbench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	env := &runEnv{root: *root, daemonBin: *daemon, nproc: runtime.NumCPU()}
	env.work = filepath.Join(env.root, ".bench_build", "work")
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sennbench:", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	var reps []*report
	for _, name := range names {
		rep, err := runOne(env, name, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sennbench: %s: %v\n", name, err)
			return 1
		}
		reps = append(reps, rep)
	}
	final := reps[0]
	if len(reps) > 1 {
		final = combine(reps)
	}
	if err := emit(final); err != nil {
		fmt.Fprintln(os.Stderr, "sennbench:", err)
		return 1
	}
	if final.failed > 0 {
		return 1
	}
	return 0
}

// runOne runs one workload and prints its human-readable report.
func runOne(env *runEnv, name string, seed int64, seconds int, traced bool) (*report, error) {
	rep := &report{workload: name, seed: seed, traced: traced, metrics: map[string]float64{}}
	var err error
	switch name {
	case wlServeShare:
		if env.daemonBin == "" {
			return nil, errors.New("-daemon is required for the serve workloads")
		}
		err = runServe(env, name, seed, seconds, traced, rep)
	case wlSimLA30:
		err = runSim(env, seed, seconds, traced, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if traced && len(rep.tracers) > 0 {
		// One file per workload: the latest traced run replaces it.
		path := filepath.Join(env.work, "trace-"+name+".tsv")
		if err := writeTrace(path, rep.tracers); err != nil {
			return nil, err
		}
		rep.notef("trace: %s", path)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	// Report exactly the metric set of this mode; a layer the workload does
	// not exercise reports 0.
	ms := map[string]float64{}
	for _, d := range defs {
		ms[d.Name] = rep.metrics[d.Name]
	}
	rep.metrics = ms
	printHuman(env, rep, defs)
	return rep, nil
}

// printHuman writes the run record, the metric table, notes and problems.
func printHuman(env *runEnv, rep *report, defs []metricDef) {
	record := map[string]any{
		"workload":   rep.workload,
		"seed":       rep.seed,
		"traced":     rep.traced,
		"nproc":      env.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(env.root),
		"params":     rep.params,
	}
	b, _ := json.Marshal(record) // plain maps, numbers and strings
	fmt.Printf("run %s\n", b)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, rep.metrics[d.Name], d.Unit)
	}
	errRate := ratio(float64(rep.failed), float64(rep.attempted))
	fmt.Printf("  %-36s %14.6g %s (%d of %d)\n", "error_rate", errRate, "fraction", rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAILED:", p)
	}
}

// gitCommit names the checkout's commit, or "unknown" when the checkout is
// not a git tree. Git is asked only when root itself holds .git, so it never
// reads a repository above the checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// combine merges the reports of -workload all: metric names get the
// workload as a prefix.
func combine(reps []*report) *report {
	out := &report{workload: "all", metrics: map[string]float64{}}
	for _, r := range reps {
		out.attempted += r.attempted
		out.failed += r.failed
		for k, v := range r.metrics {
			out.metrics[r.workload+"."+k] = v
		}
	}
	return out
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line.
func emit(rep *report) error {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	ms := map[string]metricValue{}
	for _, k := range names {
		u := units[k]
		if u == "" && rep.workload == "all" {
			u = units[k[strings.IndexByte(k, '.')+1:]]
		}
		ms[k] = metricValue{Value: rep.metrics[k], Unit: u}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
