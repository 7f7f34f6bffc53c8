package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// bounded is an end-to-end metric and the share of the baseline's median
// by which it may worsen before a change counts as a regression.
type bounded struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEndMetrics are reported by every workload; BENCHMARK.json declares
// exactly these, with these bounds (bench_test.go keeps the two equal).
var endToEndMetrics = []bounded{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "ops/s", true, 0.25},
	{"query_p50_ms", "ms", false, 0.25},
	{"query_p90_ms", "ms", false, 0.25},
	{"precision_at_10", "ratio", true, 0.15},
	{"peak_rss_mb", "MB", false, 0.20},
}

// classMetrics exist only on the workloads that issue the op class, so
// the driver's contract (every metric on every workload) cannot carry
// them; `bench compare` gates them all the same. mutate_p90_ms is
// reported but not gated: an fsync tail on a shared disk, it spread 60 %
// to 90 % between runs of one commit.
var classMetrics = []bounded{
	{"pruned_p50_ms", "ms", false, 0.25},
	{"pruned_p90_ms", "ms", false, 0.25},
	{"batch_p50_ms", "ms", false, 0.25},
	{"batch_p90_ms", "ms", false, 0.25},
	{"mutate_p50_ms", "ms", false, 0.25},
	{"ingest_p50_ms", "ms", false, 0.25},
}

// runSet is what `bench all` writes and `bench compare` reads: every
// run's report, in the order run.
type runSet struct {
	Header traceHeader `json:"header"`
	Runs   []report    `json:"runs"`
}

// cmdAll runs every workload, each in a fresh child process, once per
// seed, and writes the collected reports.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seeds := fs.String("seeds", "1", "comma-separated seeds; every workload runs once per seed")
	seconds := fs.Float64("seconds", 15, "length of each measured phase")
	trace := fs.Bool("trace", false, "run the traced variant (per-layer metrics) instead of end to end")
	quick := fs.Bool("quick", false, "tiny corpora and phases")
	out := fs.String("out", "", "write the collected reports to this path (required)")
	only := fs.String("workload", "", "run only this workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("bench all: --out is required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(envOr("MILRET_BENCH_BUILD", ".bench_build"), "all-")
	if err != nil {
		if tmp, err = os.MkdirTemp("", "bench-all-"); err != nil {
			return err
		}
	}
	defer os.RemoveAll(tmp)

	set := runSet{Header: header(config{})}
	for _, field := range strings.Split(*seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return fmt.Errorf("bench all: seed %q: %w", field, err)
		}
		for _, wl := range workloadNames {
			if *only != "" && wl != *only {
				continue
			}
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", wl, seed))
			childArgs := []string{
				"--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
				"--trace", strconv.Itoa(btoi(*trace)), "--out", path,
			}
			if *quick {
				childArgs = append(childArgs, "--quick")
			}
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("bench all: %s seed %d: %w", wl, seed, err)
			}
			var rep report
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				return fmt.Errorf("bench all: read %s: %w", path, err)
			}
			set.Runs = append(set.Runs, rep)
		}
	}
	return writeJSONFile(*out, set)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the acceptance check computes spread. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 { // the i-th of 4 cut points
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadOf is the interquartile range as a share of the median.
func spreadOf(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// verdict compares one metric on one workload: the baseline's runs
// against the candidate's.
type verdict struct {
	metric   bounded
	baseline []float64
	change   []float64
}

// worse is how much worse the change's median is, as a share of the
// baseline's median (negative: better).
func (v verdict) worse() float64 {
	a, b := median(v.baseline), median(v.change)
	if v.metric.higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// everyRunBetter reports whether each run of the change reads better
// than every run of the baseline.
func (v verdict) everyRunBetter() bool {
	for _, b := range v.change {
		for _, a := range v.baseline {
			if v.metric.higher && b <= a || !v.metric.higher && b >= a {
				return false
			}
		}
	}
	return true
}

// status applies the rule: a spread wider than the bound on either side
// makes the row unresolved — unless every run of the change beats every
// run of the baseline — and otherwise the medians decide.
func (v verdict) status() string {
	spread := max(spreadOf(v.baseline), spreadOf(v.change))
	if spread > v.metric.bound && !v.everyRunBetter() {
		return "unresolved"
	}
	if v.worse() > v.metric.bound {
		return "regression"
	}
	return "unchanged"
}

func loadRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &set, nil
}

// valuesOf collects a metric's values per workload over a set's
// untraced runs.
func valuesOf(set *runSet, name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, rep := range set.Runs {
		if rep.Trace {
			continue
		}
		m, ok := rep.Metrics[name]
		if !ok {
			m, ok = rep.Extra[name]
		}
		if ok {
			out[rep.Workload] = append(out[rep.Workload], m.Value)
		}
	}
	return out
}

// cmdCompare prints one row per (metric, workload) and fails when any
// row is a regression or unresolved.
func cmdCompare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASELINE.json CHANGE.json")
	}
	base, err := loadRunSet(args[0])
	if err != nil {
		return err
	}
	change, err := loadRunSet(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-20s %-18s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "baseline", "change", "worse", "spread", "bound", "verdict")
	bad := 0
	for _, m := range append(append([]bounded(nil), endToEndMetrics...), classMetrics...) {
		a, b := valuesOf(base, m.name), valuesOf(change, m.name)
		for _, wl := range workloadNames {
			if len(a[wl]) == 0 || len(b[wl]) == 0 {
				continue
			}
			v := verdict{metric: m, baseline: a[wl], change: b[wl]}
			st := v.status()
			if st != "unchanged" {
				bad++
			}
			fmt.Fprintf(out, "%-20s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl, m.name, median(v.baseline), median(v.change), 100*v.worse(),
				100*max(spreadOf(v.baseline), spreadOf(v.change)), 100*m.bound, st)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are regressions or unresolved", bad)
	}
	return nil
}
