// The loadtest subcommand: a load driver for a live deployment.
//
//	milret loadtest -addr 127.0.0.1:8080 -duration 10s -concurrency 8
//	milret loadtest -addr 127.0.0.1:8080 -duration 30s -rate 200 -out report.json
//
// It drives mixed traffic — single queries, batched retrievals and
// label-mutation PUTs — against a running serve process (a single node or
// a coordinator), reporting p50/p99/p999 latency per traffic class.
// Queries rotate through a fixed set of distinct example combinations, so
// steady-state traffic exercises the concept cache the way repeat-heavy
// production traffic does (first arrival trains, repeats hit, concurrent
// duplicates coalesce).
//
// It owns no server and no corpus: the self-contained measurement —
// generated corpora, oracle and restart checks, per-layer metrics — is
// bench/ (bash bench/run.sh, see bench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/server"
)

// ltRequestTimeout bounds every request the driver makes: a server that
// accepts and never answers costs an "error" sample, not a hung driver.
const ltRequestTimeout = 30 * time.Second

// ltSpec is one distinct query the generator rotates through.
type ltSpec struct {
	Positives []string
	Negatives []string
}

// ltSample is one completed operation: its traffic class (query-hit,
// query-miss, query-coalesced, batch, mutation, error) and latency.
type ltSample struct {
	class string
	d     time.Duration
}

// ltLatency summarizes one traffic class.
type ltLatency struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// ltPhase is one phase's per-class latency table. Dropped counts the
// open-loop ticks no worker could take (offered load the server never saw).
type ltPhase struct {
	Ops     int                   `json:"ops"`
	Errors  int                   `json:"errors"`
	Dropped int                   `json:"dropped,omitempty"`
	Seconds float64               `json:"seconds"`
	Classes map[string]*ltLatency `json:"classes"`
}

// ltReport is the loadtest's full output, also written as JSON via -out.
// Prune is the server's cumulative screen counters after the steady phase.
type ltReport struct {
	Target      string             `json:"target"`
	Images      int                `json:"images"`
	Concurrency int                `json:"concurrency"`
	RatePerSec  float64            `json:"rate_per_sec,omitempty"`
	Prune       *milret.PruneStats `json:"prune,omitempty"`
	Steady      *ltPhase           `json:"steady"`
}

func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "address of the running server (serve, or a coordinator) to drive; required")
	duration := fs.Duration("duration", 10*time.Second, "steady-phase length")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	rate := fs.Float64("rate", 0, "open-loop target ops/sec across all workers (0 = closed loop, as fast as the server allows)")
	queries := fs.Int("queries", 6, "distinct query fingerprints to rotate through")
	k := fs.Int("k", 5, "results per query")
	mutEvery := fs.Int("mutate-every", 11, "every Nth op is a label-mutation PUT (0 disables mutations)")
	batchEvery := fs.Int("batch-every", 7, "every Nth op is a 3-query batched retrieval (0 disables batches)")
	out := fs.String("out", "", "also write the report as JSON to this path")
	fs.Parse(args)

	if *addr == "" {
		return errors.New("loadtest: -addr is required (the address of a running milret serve); for a self-contained run use bash bench/run.sh")
	}
	gen := &ltGen{
		base: "http://" + *addr, k: *k,
		mutEvery: *mutEvery, batchEvery: *batchEvery,
		client: http.Client{Timeout: ltRequestTimeout},
	}
	rep := &ltReport{Target: gen.base, Concurrency: *concurrency, RatePerSec: *rate}

	byLabel, err := gen.fetchLabeled()
	if err != nil {
		return err
	}
	if gen.specs, rep.Images, err = buildSpecs(byLabel, *queries); err != nil {
		return err
	}
	if gen.mutEvery > 0 {
		for _, group := range byLabel {
			gen.mutIDs = append(gen.mutIDs, group...)
		}
		sort.Strings(gen.mutIDs)
	}
	fmt.Printf("loadtest: %s — %d images, %d distinct queries, %d workers, %v steady phase\n",
		rep.Target, rep.Images, len(gen.specs), *concurrency, *duration)

	rep.Steady = runPhase(gen, *concurrency, *rate, *duration)
	printPhase("steady", rep.Steady)

	if pr, ok := gen.fetchPrune(); ok {
		rep.Prune = &pr
		line := fmt.Sprintf("prune: screened %d, admitted %d, rejected %d", pr.Screened, pr.Admitted, pr.Rejected)
		if pr.Screened > 0 {
			line += fmt.Sprintf(" (%.1f%%)", 100*float64(pr.Rejected)/float64(pr.Screened))
		}
		fmt.Println(line)
	}

	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *out)
	}
	return nil
}

// fetchLabeled lists the served image IDs grouped by label.
func (g *ltGen) fetchLabeled() (map[string][]string, error) {
	var infos []server.ImageInfo
	if err := g.get("/v1/images", &infos); err != nil {
		return nil, err
	}
	byLabel := map[string][]string{}
	for _, in := range infos {
		byLabel[in.Label] = append(byLabel[in.Label], in.ID)
	}
	return byLabel, nil
}

// fetchPrune reads the server's cumulative candidate-filter counters from
// /v1/stats; ok is false when the server has not run a top-k scan (the stats
// block is omitted) or the endpoint is unreachable.
func (g *ltGen) fetchPrune() (pr milret.PruneStats, ok bool) {
	var st milret.Stats
	if g.get("/v1/stats", &st) != nil {
		return pr, false
	}
	return st.Prune, st.Prune != milret.PruneStats{}
}

// buildSpecs derives n distinct example-based queries from the served
// corpus: rotating positive pairs within a label, negatives from the next
// label over. Deterministic, so a rerun (or a restarted server) sees the
// exact same fingerprints. It also returns the corpus size.
func buildSpecs(byLabel map[string][]string, n int) ([]ltSpec, int, error) {
	labels := make([]string, 0, len(byLabel))
	images := 0
	for lb, ids := range byLabel {
		sort.Strings(ids)
		images += len(ids)
		if len(ids) >= 2 {
			labels = append(labels, lb)
		}
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		return nil, images, fmt.Errorf("no label with ≥2 images to build queries from")
	}
	var specs []ltSpec
	for i := 0; len(specs) < n; i++ {
		lb := labels[i%len(labels)]
		ids := byLabel[lb]
		rot := i / len(labels)
		if rot+1 >= len(ids) && len(specs) > 0 {
			break // corpus too small for more distinct combinations
		}
		pos := []string{ids[rot%len(ids)], ids[(rot+1)%len(ids)]}
		var neg []string
		other := byLabel[labels[(i+1)%len(labels)]]
		if len(other) > 0 && labels[(i+1)%len(labels)] != lb {
			neg = []string{other[rot%len(other)]}
		}
		specs = append(specs, ltSpec{Positives: pos, Negatives: neg})
	}
	return specs, images, nil
}

// ltGen issues one operation per call, classed by the op sequence number:
// every batchEvery-th a batch, every mutEvery-th a mutation, the rest
// single queries rotating through the spec set.
type ltGen struct {
	base       string
	specs      []ltSpec
	mutIDs     []string
	k          int
	mutEvery   int
	batchEvery int
	client     http.Client
}

// op issues operation seq and times it from due — when the op was
// scheduled, which for an open-loop tick precedes the moment a worker
// picked it up — so queue delay is part of the latency.
func (g *ltGen) op(seq int, due time.Time) ltSample {
	class, err := g.issue(seq)
	d := time.Since(due)
	if err != nil {
		class = "error"
	}
	return ltSample{class: class, d: d}
}

func (g *ltGen) issue(seq int) (string, error) {
	switch {
	case g.batchEvery > 0 && seq%g.batchEvery == g.batchEvery-1:
		return g.batch(seq)
	case g.mutEvery > 0 && seq%g.mutEvery == g.mutEvery-1:
		return g.mutate(seq)
	default:
		return g.query(seq)
	}
}

// query posts one /v1/query; the class comes from the server's own cache
// disposition, so the report separates hit, miss and coalesced latency.
func (g *ltGen) query(seq int) (string, error) {
	sp := g.specs[seq%len(g.specs)]
	var resp server.QueryResponse
	err := g.post("/v1/query", server.QueryRequest{
		Positives: sp.Positives, Negatives: sp.Negatives, K: g.k, Mode: "identical",
	}, &resp)
	if err != nil {
		return "", err
	}
	if resp.Cache == "" {
		return "query", nil
	}
	return "query-" + resp.Cache, nil
}

// batch posts a 3-entry /v1/retrieve/batch rotating through the specs.
func (g *ltGen) batch(seq int) (string, error) {
	qs := make([]server.BatchQuery, 0, 3)
	for j := 0; j < 3; j++ {
		sp := g.specs[(seq+j)%len(g.specs)]
		qs = append(qs, server.BatchQuery{Positives: sp.Positives, Negatives: sp.Negatives, Mode: "identical"})
	}
	var resp server.BatchRetrieveResponse
	if err := g.post("/v1/retrieve/batch", server.BatchRetrieveRequest{Queries: qs, K: g.k}, &resp); err != nil {
		return "", err
	}
	return "batch", nil
}

// mutate PUTs a label-only update — the metadata mutation path: journaled
// and flushed like any write, but leaving bag content (and therefore
// every cache fingerprint) untouched.
func (g *ltGen) mutate(seq int) (string, error) {
	id := g.mutIDs[seq%len(g.mutIDs)]
	body, err := json.Marshal(server.UpdateImageRequest{Label: fmt.Sprintf("lt-%d", seq%7)})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPut, g.base+"/v1/images/"+id, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("PUT %s: status %d", id, resp.StatusCode)
	}
	return "mutation", nil
}

func (g *ltGen) post(path string, body, into any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeOK(resp, "POST "+path, into)
}

func (g *ltGen) get(path string, into any) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	return decodeOK(resp, "GET "+path, into)
}

func decodeOK(resp *http.Response, what string, into any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runPhase drives the generator for the given duration: closed-loop
// (workers back to back) or open-loop (a pacer sends each tick's due time
// at rate ops/sec and workers time the op from it, so a slow server shows
// as queue delay in the measured latency; a tick that finds every worker
// busy and the queue full is counted as dropped, not queued forever).
func runPhase(gen *ltGen, concurrency int, rate float64, duration time.Duration) *ltPhase {
	start := time.Now()
	deadline := start.Add(duration)
	var seq atomic.Int64
	var mu sync.Mutex
	var samples []ltSample
	run := func(due time.Time) {
		s := gen.op(int(seq.Add(1)-1), due)
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	var pace chan time.Time
	dropped := 0 // written by the pacer only; read after close(pace) has released every worker
	if rate > 0 {
		pace = make(chan time.Time, concurrency)
		go func() {
			defer close(pace)
			tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
			defer tick.Stop()
			for due := range tick.C {
				if !due.Before(deadline) {
					return
				}
				select {
				case pace <- due:
				default:
					dropped++
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if pace != nil {
				for due := range pace {
					run(due)
				}
				return
			}
			for now := time.Now(); now.Before(deadline); now = time.Now() {
				run(now)
			}
		}()
	}
	wg.Wait()
	ph := summarize(samples, time.Since(start))
	ph.Dropped = dropped
	return ph
}

func summarize(samples []ltSample, elapsed time.Duration) *ltPhase {
	ph := &ltPhase{Classes: map[string]*ltLatency{}, Seconds: elapsed.Seconds()}
	byClass := map[string][]time.Duration{}
	for _, s := range samples {
		ph.Ops++
		if s.class == "error" {
			ph.Errors++
		}
		byClass[s.class] = append(byClass[s.class], s.d)
	}
	for cl, ds := range byClass {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		ph.Classes[cl] = &ltLatency{
			Count:  len(ds),
			P50MS:  ms(pct(ds, 0.50)),
			P99MS:  ms(pct(ds, 0.99)),
			P999MS: ms(pct(ds, 0.999)),
			MaxMS:  ms(ds[len(ds)-1]),
		}
	}
	return ph
}

func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func printPhase(name string, ph *ltPhase) {
	fmt.Printf("%-13s %5d ops in %6.2fs (%d errors, %d dropped)\n", name+":", ph.Ops, ph.Seconds, ph.Errors, ph.Dropped)
	classes := make([]string, 0, len(ph.Classes))
	for cl := range ph.Classes {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		lat := ph.Classes[cl]
		fmt.Printf("  %-16s %5d  p50 %8.2fms  p99 %8.2fms  p99.9 %8.2fms  max %8.2fms\n",
			cl, lat.Count, lat.P50MS, lat.P99MS, lat.P999MS, lat.MaxMS)
	}
}
