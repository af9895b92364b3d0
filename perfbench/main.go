// Command perfbench is locshort's end-to-end and per-layer benchmark. It
// starts real locshortd processes built from the checkout, drives them
// over loopback HTTP with a closed loop of one or two connections, checks a
// deterministic sample of the replies against fresh in-process builds, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root lists the workloads and metrics; METRICS.md in this
// directory says what each one measures and which layer metric should
// move which end-to-end metric.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays the same request stream, measures the per-layer metrics and
// writes the replay's spans to .bench_build/traces/. --workload all runs
// every workload, untraced and traced, --rounds times in rotating order
// and prints each metric's median and quartiles.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outcome is one run's result.
type outcome struct {
	workload  string
	seed      int64
	trace     bool
	attempted int
	failed    int // failed requests plus sampled replies that disagree
	metrics   map[string]float64
	counts    map[string]int // sample counts behind the latency metrics
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
		root    = flag.String("root", ".", "checkout root; all files go to its .bench_build/")
		bin     = flag.String("daemon", "", "locshortd binary built from the checkout")
		rounds  = flag.Int("rounds", 3, "with --workload all: interleaved rounds")
	)
	flag.Parse()
	if *bin == "" {
		return fmt.Errorf("--daemon is required (run through perfbench/run.sh)")
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	env := &runEnv{
		out:     filepath.Join(absRoot, ".bench_build"),
		daemon:  *bin,
		seconds: time.Duration(*seconds) * time.Second,
	}
	env.host = probeHost(absRoot)
	fmt.Printf("host: %s\n", env.host)

	if *name == "all" {
		return runProtocol(env, *seed, *rounds)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	o, err := env.runOnce(w, *seed, *trace == 1)
	if err != nil {
		return err
	}
	if err := env.record(o); err != nil {
		return err
	}
	printOutcome(o)
	return printResultLine(o.attempted, o.failed, o.metrics, metricSet(o.trace))
}

// runEnv is what every run shares: where files go, the daemon binary,
// the window length and the host record.
type runEnv struct {
	out     string
	daemon  string
	seconds time.Duration
	host    hostInfo
}

// record writes one run's metrics with the host record to
// .bench_build/results/.
func (e *runEnv) record(o *outcome) error {
	dir := filepath.Join(e.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"host": e.host, "workload": o.workload, "seed": o.seed, "trace": o.trace,
		"seconds": e.seconds.Seconds(), "attempted": o.attempted, "failed": o.failed,
		"metrics": o.metrics, "sample_counts": o.counts,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	return os.WriteFile(path, b, 0o644)
}

// printOutcome prints the run's metrics as name = value unit lines.
func printOutcome(o *outcome) {
	fmt.Printf("workload %s seed %d trace %v: %d attempted, %d failed\n",
		o.workload, o.seed, o.trace, o.attempted, o.failed)
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples %s = %d\n", k, o.counts[k])
	}
	for _, m := range metricSet(o.trace) {
		fmt.Printf("  %-40s %14.4f %s\n", m.name, o.metrics[m.name], m.unit)
	}
}

// printResultLine prints the final JSON line.
func printResultLine(attempted, failed int, values map[string]float64, set []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(set))
	for _, m := range set {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = mv{v, m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runProtocol runs every workload untraced and traced, rounds times,
// rotating which workload goes first, and reports each metric's median
// with its quartiles.
func runProtocol(env *runEnv, seed int64, rounds int) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	attempted, failed := 0, 0
	for r := 0; r < rounds; r++ {
		for i := range workloads {
			w := workloads[(r+i)%len(workloads)]
			for _, traced := range []bool{false, true} {
				o, err := env.runOnce(w, seed+int64(r), traced)
				if err != nil {
					return fmt.Errorf("%s round %d: %w", w.name, r, err)
				}
				if err := env.record(o); err != nil {
					return err
				}
				printOutcome(o)
				attempted += o.attempted
				failed += o.failed
				for name, v := range o.metrics {
					values[key{w.name, name}] = append(values[key{w.name, name}], v)
				}
			}
		}
	}
	fmt.Printf("\nmedian [q1, q3] over %d rounds (seeds %d..%d)\n", rounds, seed, seed+int64(rounds)-1)
	medians := map[string]float64{}
	var set []metric
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, m := range append(metricSet(false), metricSet(true)...) {
			vs := values[key{w.name, m.name}]
			q1, med, q3 := quartiles(vs)
			fmt.Printf("  %-40s %14.4f [%.4f, %.4f] %s\n", m.name, med, q1, q3, m.unit)
			name := w.name + "/" + m.name
			medians[name] = med
			set = append(set, metric{name: name, unit: m.unit})
		}
	}
	return printResultLine(attempted, failed, medians, set)
}

// hostInfo is the host record stored with every result.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		strings.TrimSpace(h.CPU), h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
}
