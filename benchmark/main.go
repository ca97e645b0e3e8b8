// Command benchmark is the repository's benchmark: four in-process
// workloads over the public staircase API and Server.Handler(), nine
// end-to-end metrics each, and a traced run that breaks the cost down
// by layer. See README.md in this directory.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// prints every metric of workload W by name with its unit and, as the
// last line, one JSON object {correct, attempted, failed, metrics}.
// Without --workload it runs all four. --smoke runs tiny corpora and
// one short pass; --selfcheck runs the whole suite twice and compares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var cfg runConfig
	name := flag.String("workload", "", "workload to run (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus and the script")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured passes run")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1: write the spans to this file as JSON")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny corpora and one short pass")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two sets of end-to-end metrics")
	flag.Parse()
	cfg.trace = *trace != 0

	// Two Ps whatever the machine has: the server workloads' two
	// callers each get one, and numbers from a larger box stay
	// comparable.
	runtime.GOMAXPROCS(2)

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "corpus-")
	if err != nil {
		fatal(err)
	}
	cfg.workdir = dir
	code := 0
	if *selfcheck {
		code = runSelfcheck(selected, cfg)
	} else {
		printConditions()
		for i := range selected {
			res, err := runWorkload(&selected[i], cfg)
			if err != nil {
				os.RemoveAll(dir)
				fatal(err)
			}
			printResult(res, cfg)
			if res.failed > 0 {
				code = 1
			}
		}
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printConditions prints the conditions the numbers depend on.
func printConditions() {
	fmt.Printf("conditions: GOMAXPROCS=%d nproc=%d %s %s/%s GOGC=default host.colscan_ns_per_node=%.4f\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		colscan(make([]int32, 1<<20)))
}

// reported lists the metrics a run prints: the end-to-end ones from
// an untraced run, the per-layer ones from a traced run.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(res *result, cfg runConfig) {
	w := res.w
	fmt.Printf("workload %s: seed=%d script=%s corpus=%gMB nodes=%d ops/pass=%d callers=%d passes=%d attempted=%d failed=%d quiet=%.3f\n",
		w.name, cfg.seed, res.scriptHash, w.corpusMB(cfg.smoke), res.nodes, res.attempted/max(res.passes, 1), numCallers, res.passes, res.attempted, res.failed, res.quietShare)
	if res.quietShare < minQuietShare {
		fmt.Printf("  unresolved: only %.1f%% of the operations ran on a quiet machine; the timing metrics below are not to be trusted\n", 100*res.quietShare)
	}
	if res.firstErr != nil {
		fmt.Printf("  first failure: %v\n", res.firstErr)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, def := range reported(cfg.trace) {
		m := res.metrics[def.name]
		fmt.Printf("  %-32s %16.4f %-10s samples=%-7d spread=%.4f\n", def.name, m.value, def.unit, m.samples, m.spread)
		out.Metrics[def.name] = jsonMetric{m.value, def.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runSelfcheck runs the suite twice in one invocation and prints, per
// workload and end-to-end metric, both values, their relative
// difference, the share of operations each run measured on a quiet
// machine, and a verdict against the metric's bound. It returns the
// exit code.
func runSelfcheck(selected []workload, cfg runConfig) int {
	cfg.trace = false
	printConditions()
	code := 0
	var runs [2][]*result
	for r := range runs {
		for i := range selected {
			res, err := runWorkload(&selected[i], cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if res.failed > 0 {
				fmt.Printf("%s: %d of %d operations failed: %v\n", res.w.name, res.failed, res.attempted, res.firstErr)
				code = 1
			}
			runs[r] = append(runs[r], res)
		}
	}
	fmt.Printf("%-15s %-26s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "run 1", "run 2", "diff", "quiet1", "quiet2", "bound", "verdict")
	for i := range selected {
		for _, def := range endToEnd {
			a, b := runs[0][i].metrics[def.name], runs[1][i].metrics[def.name]
			diff := 0.0
			if a.value != 0 {
				diff = (b.value - a.value) / a.value
			}
			q1, q2 := runs[0][i].quietShare, runs[1][i].quietShare
			verdict := "PASS"
			if max(diff, -diff) > def.bound || min(q1, q2) < minQuietShare {
				verdict = "unresolved"
				code = 1
			}
			fmt.Printf("%-15s %-26s %14.4f %14.4f %+7.2f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				selected[i].name, def.name, a.value, b.value, 100*diff, 100*q1, 100*q2, 100*def.bound, verdict)
		}
	}
	return code
}
