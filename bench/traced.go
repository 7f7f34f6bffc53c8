package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"milret"
	"milret/internal/core"
)

// runTraced is the --trace 1 run. The stack was built with the harness's
// decorators at every boundary; one client drives it for the measured
// time — half of it with the decorators idle (the overhead base), half
// recording — and then the layer probes replay the
// recorded inputs straight into each layer. One client, on every
// workload: spans then nest by time alone and self times are
// contention-free; contention is what the end-to-end run is for.
func runTraced(cfg config, r *runner, rep *report, setupS, checkSeconds float64) error {
	r.drive(cfg.profile().warmup, 1)

	// Idle and recording slices alternate, so drift over the run (a noisy
	// neighbour, a warming cache) lands on both sides of the overhead ratio.
	// A slice is at least 0.75 s — room for one cold_feedback query.
	slices := 2 * max(1, min(10, int(cfg.seconds/1.5)))
	slice := time.Duration(cfg.seconds * float64(time.Second) / float64(slices))
	statsBefore := r.st.backend.Stats()
	evalsBefore, _ := core.TrainerEvals()
	base, traced := newPhase(), newPhase()
	for s := 0; s < slices; s++ {
		recording := s%2 == 1
		r.t.on.Store(recording)
		p := r.drive(slice, 1)
		r.t.on.Store(false)
		if recording {
			traced.merge(p)
		} else {
			base.merge(p)
		}
	}
	evalsAfter, _ := core.TrainerEvals()
	statsAfter := r.st.backend.Stats()
	notePhase(rep, base)
	notePhase(rep, traced)

	spans := r.t.take()
	m := rep.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("server.requests", float64(rep.Attempted), "count")
	set("server.errors", float64(rep.Failed), "count")
	queries := len(base.lat[opQuery]) + len(traced.lat[opQuery])
	set("core.evals_per_query", ratio(float64(evalsAfter-evalsBefore), float64(queries)), "count")
	cacheDelta(set, statsBefore.Cache, statsAfter.Cache)

	budgets := budgetByClass(spans)
	q := budgets[opQuery]
	set("server.transport_ms", q.median("server.transport"), "ms")
	set("server.self_ms", q.median("server.self"), "ms")
	set("backend.train_ms", q.median(spanBackend+"TrainCachedContext"), "ms")
	set("backend.retrieve_ms", q.median(spanBackend+"Retrieve"), "ms")
	set("bench.budget_residual_ratio", q.residual(), "ratio")
	basePrefix, tracedP50 := summarize(base.lat[opQuery]).P50, summarize(traced.lat[opQuery]).P50
	set("bench.trace_overhead_ratio", ratio(tracedP50, basePrefix), "ratio")
	set("bench.corpus_gen_s", r.w.genSeconds, "s")
	set("bench.check_s", checkSeconds, "s")
	rep.Extra["traced.setup_s"] = metric{setupS, "s"}
	rep.Extra["traced.query_p50_ms"] = metric{tracedP50, "ms"}
	rep.Extra["untraced.query_p50_ms"] = metric{basePrefix, "ms"}
	for _, class := range opClasses {
		if n := len(base.lat[class]) + len(traced.lat[class]); n > 0 {
			rep.Samples[string(class)] = n
		}
	}

	probes, err := runProbes(cfg, r)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probes {
		m[name] = v
	}

	printBudget(os.Stdout, budgets, m)
	tracePath := filepath.Join(cfg.benchDir, "out", fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := writeChromeTrace(tracePath, header(cfg), spans); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), tracePath)
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cacheDelta reports the concept cache's traffic over the measured
// phases. The design fixes these: every query of the hit workloads hits,
// every query of cold_feedback misses.
func cacheDelta(set func(string, float64, string), before, after *milret.CacheStats) {
	if before == nil || after == nil {
		before, after = &milret.CacheStats{}, &milret.CacheStats{}
	}
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses) + float64(after.Coalesced-before.Coalesced)
	set("qcache.hit_ratio", ratio(hits, lookups), "ratio")
	set("qcache.coalesced", float64(after.Coalesced-before.Coalesced), "count")
	set("qcache.evictions", float64(after.Evictions-before.Evictions), "count")
}

// classBudget holds, per op of one class, the time each blocking-path
// component took (ms): transport, the handler's own time, each backend
// call's own time, and the time covered by shard handlers.
type classBudget struct {
	parts map[string][]float64
	total []float64
}

func (b *classBudget) median(part string) float64 {
	if b == nil {
		return 0
	}
	return median(b.parts[part])
}

// residual is |Σ component medians − median op time| / median op time:
// how much of the traced latency the budget fails to attribute.
func (b *classBudget) residual() float64 {
	if b == nil || len(b.total) == 0 {
		return 0
	}
	var sum float64
	for _, xs := range b.parts {
		sum += median(xs)
	}
	total := median(b.total)
	d := sum - total
	if d < 0 {
		d = -d
	}
	return ratio(d, total)
}

const (
	partTransport = "server.transport"
	partServer    = "server.self"
)

// budgetByClass splits every traced op into its blocking-path
// components. An op's components sum to its wall time exactly; the
// budget reports their medians.
func budgetByClass(spans []span) map[opClass]*classBudget {
	self := selfTimes(spans)
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[opClass]*classBudget{}
	for i, s := range spans {
		if s.Name != spanClientOp {
			continue
		}
		b := out[s.Class]
		if b == nil {
			b = &classBudget{parts: map[string][]float64{}}
			out[s.Class] = b
		}
		parts := map[string]float64{partTransport: float64(self[i]) / 1e6}
		for _, h := range children[i] {
			parts[partServer] += float64(self[h]) / 1e6
			for _, be := range children[h] {
				parts[spans[be].Name] += float64(self[be]) / 1e6
				if covered := spans[be].dur() - self[be]; covered > 0 {
					parts[spanShardHandler] += float64(covered) / 1e6
				}
			}
		}
		for name, v := range parts {
			b.parts[name] = append(b.parts[name], v)
		}
		b.total = append(b.total, float64(s.dur())/1e6)
	}
	return out
}

// printBudget prints the budget view: per op class, the stacked
// blocking-path medians, then the probe chains that break the two large
// backend spans down further, next to the memory-bandwidth ceiling.
func printBudget(out io.Writer, budgets map[opClass]*classBudget, m map[string]metric) {
	fmt.Fprintln(out, "latency budget (traced run, one client; medians, ms):")
	for _, class := range opClasses {
		b := budgets[class]
		if b == nil {
			continue
		}
		fmt.Fprintf(out, "  %s  n=%d  p50=%.4f  unattributed=%.1f%%\n", class, len(b.total), median(b.total), 100*b.residual())
		names := make([]string, 0, len(b.parts))
		for name := range b.parts {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return budgetOrder(names[i]) < budgetOrder(names[j]) })
		for _, name := range names {
			fmt.Fprintf(out, "    %-34s %10.4f\n", name, median(b.parts[name]))
		}
	}
	v := func(name string) float64 { return m[name].Value }
	fmt.Fprintln(out, "  under backend.Retrieve (layer probes, ms):")
	fmt.Fprintf(out, "    milret.retrieve_self_ms %.4f → retrieval.self_ms %.4f → index.topk_ms %.4f\n",
		v("milret.retrieve_self_ms"), v("retrieval.self_ms"), v("index.topk_ms"))
	fmt.Fprintln(out, "  under backend.TrainCachedContext (layer probes):")
	fmt.Fprintf(out, "    qcache.hit_us %.3f | qcache.miss_overhead_us %.3f → core.train_ms %.3f\n",
		v("qcache.hit_us"), v("qcache.miss_overhead_us"), v("core.train_ms"))
	fmt.Fprintf(out, "  scan stream %.2f GB/s vs copy ceiling %.2f GB/s\n", v("mat.stream_gbps"), v("mat.copy_gbps"))
}

// budgetOrder sorts budget rows from the client inwards.
func budgetOrder(name string) string {
	switch name {
	case partTransport:
		return "0"
	case partServer:
		return "1"
	case spanShardHandler:
		return "3"
	}
	return "2" + name
}
