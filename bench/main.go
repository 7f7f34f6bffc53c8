// Command bench is the repository's benchmark: four HTTP-level workloads
// driven closed-loop over loopback, correctness-checked against an
// oracle computed from the generator's own vectors, with a traced run
// that attributes a request's latency to the layers it passes through.
//
//	bench --workload warm_scan --seed 1 --seconds 15 --trace 0
//	bench all --out a.json          every workload, each in a fresh process
//	bench compare a.json b.json     apply the regression bounds
//
// A single-workload run prints every metric by name with its unit, then —
// as the last line of standard output — one JSON object with the keys
// correct, attempted, failed and metrics, carrying the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1) that BENCHMARK.json
// declares. See README.md in this directory for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"milret/internal/mat"
)

// config is one single-workload invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
	// benchDir holds this package's sources (traces go to benchDir/out);
	// buildDir is scratch space for generated stores, removed on exit.
	benchDir string
	buildDir string
}

func (c config) profile() profile {
	if c.quick {
		return quickProfile
	}
	return fullProfile
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured: the contract's result plus the
// per-class latencies that exist only on the workloads issuing the class
// (Extra), sample counts, and the first failures.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick,omitempty"`
	result
	Extra   map[string]metric `json:"extra,omitempty"`
	Samples map[string]int    `json:"samples,omitempty"`
	// Tails is, per op class, the highest percentile that keeps ten
	// samples beyond it ("p99") and its value — for the reader; the
	// gated tails are the fixed p90s.
	Tails    map[string]metric `json:"tails,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return cmdCompare(args[1:], os.Stdout)
		case "all":
			return cmdAll(args[1:])
		}
	}
	return cmdRun(args)
}

// envOr returns the environment variable's value or a fallback.
func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func parseRunFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	fs.StringVar(&trace, "trace", "0", "1 records spans and runs the layer probes (per-layer metrics); 0 measures end to end")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny corpora and phases: exercises every path and check, measures nothing")
	fs.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	on, err := strconv.ParseBool(trace)
	if err != nil {
		return cfg, fmt.Errorf("--trace %q: want 0 or 1", trace)
	}
	cfg.trace = on
	cfg.benchDir = envOr("MILRET_BENCH_DIR", "bench")
	cfg.buildDir = envOr("MILRET_BENCH_BUILD", ".bench_build")
	return cfg, nil
}

func cmdRun(args []string) error {
	cfg, err := parseRunFlags(args)
	if err != nil {
		return err
	}
	if cfg.workload == "" {
		return fmt.Errorf("--workload is required (one of %s), or use `bench all`", strings.Join(workloadNames, ", "))
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if cfg.out != "" {
		if err := writeJSONFile(cfg.out, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or a check did not pass: %s",
			rep.Workload, rep.Failed, rep.Attempted, strings.Join(rep.Failures, "; "))
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload generates the workload's inputs, sets the stack up (several
// times, for a steady setup_s), pins and checks the primed answers, then
// measures: end to end with tracing off, or — with cfg.trace — half the
// time with the decorators idle and half recording, followed by the
// layer probes.
func runWorkload(cfg config) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	prof := cfg.profile()
	dir, err := makeWorkDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	w, err := buildWorld(cfg.workload, cfg.seed, prof, dir)
	if err != nil {
		return nil, err
	}
	// peak_rss_mb is about the program, so the generator's transient
	// buffers (a second copy of the corpus while it is written and
	// resharded) are returned and the high-water mark restarted here.
	debug.FreeOSMemory()
	resetPeakRSS()
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}

	var setups []float64
	var st *stack
	var r *runner
	// Set-up repeats until there are at least three timings and they add
	// up to setupBudget, so a 0.3 s set-up is timed nine times and a 2.5 s
	// one three. A traced run does not report setup_s and sets up once.
	for rep := 0; ; rep++ {
		if st != nil {
			r.cli.close()
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", rep, err)
			}
			if err := w.resetStoreSideFiles(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if st, err = buildStack(w, t); err != nil {
			return nil, err
		}
		r = newRunner(w, st, t, cfg.seed)
		if err := r.prime(); err != nil {
			_ = st.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if cfg.trace || len(setups) >= prof.setupMax || (len(setups) >= prof.setupMin && sum(setups) >= prof.setupBudget.Seconds()) {
			break
		}
	}
	defer func() {
		r.cli.close()
		_ = st.close() // nothing after the run depends on a clean close
	}()

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		result:  result{Correct: true, Metrics: map[string]metric{}},
		Extra:   map[string]metric{},
		Samples: map[string]int{},
		Tails:   map[string]metric{},
	}
	fail := func(err error) {
		rep.Correct = false
		rep.Failures = append(rep.Failures, err.Error())
	}

	checkStart := time.Now()
	if err := r.verifyPrimed(); err != nil {
		fail(err)
	}
	checkSeconds := time.Since(checkStart).Seconds()

	if cfg.trace {
		if err := runTraced(cfg, r, rep, median(setups), checkSeconds); err != nil {
			return nil, err
		}
	} else {
		r.drive(prof.warmup, r.tr.clients)
		p := r.drive(time.Duration(cfg.seconds*float64(time.Second)), r.tr.clients)
		notePhase(rep, p)
		rss := peakRSSMB() // before the restart check opens a second database
		if err := r.postRunChecks(p); err != nil {
			fail(err)
		}
		endToEnd(rep, p, median(setups), rss)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep, nil
}

// postRunChecks are the run-level checks that need the measured phase
// behind them.
func (r *runner) postRunChecks(p *phase) error {
	switch r.w.name {
	case wlMixedRW:
		copyPath, err := r.snapshotStore("restart")
		if err != nil {
			return err
		}
		return r.verifyDurability(copyPath)
	case wlColdFeedback:
		if prec, floor := p.precision(), r.w.prof.precisionFloor; prec < floor {
			return fmt.Errorf("precision_at_10 %.3f below the %.1f floor", prec, floor)
		}
	}
	return nil
}

// notePhase copies a phase's counts and failures into the report.
func notePhase(rep *report, p *phase) {
	rep.Attempted += p.attempted
	rep.Failed += p.failed
	rep.Failures = append(rep.Failures, p.errs...)
}

// endToEnd fills the end-to-end metrics: the six every workload reports
// (the contract's set) and, in Extra, each other op class's latency on
// the workloads that issue it.
func endToEnd(rep *report, p *phase, setupS, rssMB float64) {
	q := summarize(p.lat[opQuery])
	p90 := q.P90
	if p90 == 0 && q.N > 0 {
		// Too few samples for ten to lie beyond p90 (cold_feedback): the
		// contract wants the metric on every workload, so it is reported
		// from the samples there are; README.md says how far to trust it.
		sorted := append([]float64(nil), p.lat[opQuery]...)
		sort.Float64s(sorted)
		p90 = quantile(sorted, 90)
	}
	rep.Metrics["setup_s"] = metric{setupS, "s"}
	rep.Metrics["ops_per_s"] = metric{p.opsPerSec(), "ops/s"}
	rep.Metrics["query_p50_ms"] = metric{q.P50, "ms"}
	rep.Metrics["query_p90_ms"] = metric{p90, "ms"}
	rep.Metrics["precision_at_10"] = metric{p.precision(), "ratio"}
	rep.Metrics["peak_rss_mb"] = metric{rssMB, "MB"}
	for _, class := range opClasses {
		s := summarize(p.lat[class])
		if s.N == 0 {
			continue
		}
		rep.Samples[string(class)] = s.N
		if s.TailP > 0 {
			rep.Tails[string(class)] = metric{s.TailMS, fmt.Sprintf("ms@p%g", s.TailP)}
		}
		if class == opQuery {
			continue
		}
		rep.Extra[string(class)+"_p50_ms"] = metric{s.P50, "ms"}
		if s.P90 > 0 && class != opIngest {
			rep.Extra[string(class)+"_p90_ms"] = metric{s.P90, "ms"}
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux ≥ 4.0). Where the write is refused the mark simply
// keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// makeWorkDir creates this run's scratch directory under the build dir.
func makeWorkDir(cfg config) (string, error) {
	base := filepath.Join(cfg.buildDir, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, fmt.Sprintf("%s-seed%d-", cfg.workload, cfg.seed))
}

// header identifies the build and the box, for traces and reports.
func header(cfg config) traceHeader {
	h := traceHeader{
		Commit: "unknown", Workload: cfg.workload, Seed: cfg.seed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: mat.Kernel(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// printReport prints every metric by name with its unit, sorted.
func printReport(out io.Writer, rep *report) {
	fmt.Fprintf(out, "workload %s  seed %d  measured %.1fs  trace %v  ops %d  failed %d  correct %v\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Attempted, rep.Failed, rep.Correct)
	printMetrics(out, rep.Metrics)
	printMetrics(out, rep.Extra)
	if len(rep.Samples) > 0 {
		var parts []string
		for _, class := range opClasses {
			if n := rep.Samples[string(class)]; n > 0 {
				part := fmt.Sprintf("%s=%d", class, n)
				if t, ok := rep.Tails[string(class)]; ok {
					part += fmt.Sprintf(" (%.4g %s)", t.Value, t.Unit)
				}
				parts = append(parts, part)
			}
		}
		fmt.Fprintf(out, "samples: %s\n", strings.Join(parts, " "))
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
