// The loadtest subcommand: a measured load harness for the serving stack.
//
//	milret loadtest -duration 10s -concurrency 8
//	milret loadtest -db scenes.milret -duration 30s -rate 200 -out report.json
//	milret loadtest -addr 127.0.0.1:8080 -duration 10s
//
// It drives mixed traffic — single queries, batched retrievals and
// label-mutation PUTs — against a live serve process (an external one via
// -addr, or an in-process server over a synthetic corpus by default),
// reporting p50/p99/p999 latency per traffic class. Queries rotate
// through a fixed set of distinct example combinations, so steady-state
// traffic exercises the concept cache the way repeat-heavy production
// traffic does (first arrival trains, repeats hit, concurrent duplicates
// coalesce).
//
// After the steady phase, the in-process harness measures the restart
// storm the concept-cache sidecar exists to fix: it restarts the server
// twice — once warm (flush, reopen with the sidecar) and once cold
// (reopen without it) — and replays the same repeat queries against each,
// reporting the two latency profiles side by side. A warm restart answers
// every repeat from the sidecar-loaded cache without invoking the
// trainer; a cold restart retrains every one of them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/server"
	"milret/internal/synth"
)

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

// ltPhase is one phase's per-class latency table.
type ltPhase struct {
	Ops     int                   `json:"ops"`
	Errors  int                   `json:"errors"`
	Seconds float64               `json:"seconds"`
	Classes map[string]*ltLatency `json:"classes"`
}

// ltPrune is the candidate-filter block of the report: the server's
// cumulative screen counters after the steady phase, plus the achieved
// recall measured by replaying each query fingerprint pruned and exact and
// comparing the top-k sets (only measurable against a filtered scan).
type ltPrune struct {
	Screened       int64   `json:"screened"`
	Admitted       int64   `json:"admitted"`
	Rejected       int64   `json:"rejected"`
	AchievedRecall float64 `json:"achieved_recall,omitempty"`
}

// ltReport is the loadtest's full output, also written as JSON via -out.
type ltReport struct {
	Target      string   `json:"target"`
	Images      int      `json:"images"`
	Concurrency int      `json:"concurrency"`
	RatePerSec  float64  `json:"rate_per_sec,omitempty"`
	Recall      float64  `json:"recall,omitempty"`
	Prune       *ltPrune `json:"prune,omitempty"`
	Steady      *ltPhase `json:"steady"`
	WarmRestart *ltPhase `json:"warm_restart,omitempty"`
	ColdRestart *ltPhase `json:"cold_restart,omitempty"`
	// WarmServedWithoutTraining is true when every repeat query after the
	// warm restart was answered from the sidecar-loaded cache (no cache
	// misses) — the property the sidecar exists to provide.
	WarmServedWithoutTraining bool `json:"warm_served_without_training,omitempty"`
}

func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	dbPath := fs.String("db", "", "existing database to serve in-process (default: build a synthetic corpus)")
	addr := fs.String("addr", "", "drive an already-running server at this address instead of starting one in-process (restart phases are skipped)")
	synthN := fs.Int("synth", 3, "images per category of the synthetic corpus built when -db is empty")
	imagesN := fs.Int("images", 0, "total synthetic corpus size when -db is empty (overrides -synth): images are generated and ingested one at a time, so large corpora build without holding the corpus in memory")
	recall := fs.Float64("recall", 0, "candidate-pruning tier for query scans (see serve -recall): 0 leaves the server's default, 1.0 the exact scan, (0,1) calibrated; sent per request, so it also applies to an external -addr server")
	duration := fs.Duration("duration", 10*time.Second, "steady-phase length")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count")
	rate := fs.Float64("rate", 0, "open-loop target ops/sec across all workers (0 = closed loop, as fast as the server allows)")
	queries := fs.Int("queries", 6, "distinct query fingerprints to rotate through")
	k := fs.Int("k", 5, "results per query")
	mutEvery := fs.Int("mutate-every", 11, "every Nth op is a label-mutation PUT (0 disables mutations)")
	batchEvery := fs.Int("batch-every", 7, "every Nth op is a 3-query batched retrieval (0 disables batches)")
	cacheMB := fs.Int("concept-cache-mb", 64, "concept-cache size for the in-process server")
	repeats := fs.Int("restart-repeats", 20, "repeat queries replayed against each restarted server")
	out := fs.String("out", "", "also write the report as JSON to this path")
	applyKernel := kernelFlag(fs)
	fs.Parse(args)

	if err := applyKernel(); err != nil {
		return err
	}
	rep := &ltReport{Concurrency: *concurrency, RatePerSec: *rate, Recall: *recall}
	var base string
	var h *ltHarness
	if *addr != "" {
		base = "http://" + *addr
		rep.Target = base
	} else {
		var err error
		h, err = startHarness(*dbPath, *synthN, *imagesN, *cacheMB, *recall)
		if err != nil {
			return err
		}
		defer h.stop()
		base = h.base()
		rep.Target = base + " (in-process)"
	}

	specs, images, err := buildSpecs(base, *queries)
	if err != nil {
		return err
	}
	rep.Images = images
	fmt.Printf("loadtest: %s — %d images, %d distinct queries, %d workers, %v steady phase\n",
		rep.Target, images, len(specs), *concurrency, *duration)

	gen := &ltGen{
		base: base, specs: specs, k: *k,
		mutEvery: *mutEvery, batchEvery: *batchEvery,
	}
	if *recall != 0 {
		gen.recall = recall
	}
	if gen.mutEvery > 0 {
		if gen.mutIDs, err = fetchIDs(base); err != nil {
			return err
		}
	}
	rep.Steady = runPhase(gen, *concurrency, *rate, *duration)
	printPhase("steady", rep.Steady)

	if pr := fetchPrune(base); pr != nil {
		rep.Prune = &ltPrune{Screened: pr.Screened, Admitted: pr.Admitted, Rejected: pr.Rejected}
		line := fmt.Sprintf("prune: screened %d, admitted %d, rejected %d (%.1f%%)",
			pr.Screened, pr.Admitted, pr.Rejected, 100*float64(pr.Rejected)/float64(pr.Screened))
		if *recall > 0 {
			if ar, ok := measureAchievedRecall(gen, specs, *recall); ok {
				rep.Prune.AchievedRecall = ar
				line += fmt.Sprintf(", achieved recall %.4f", ar)
			}
		}
		fmt.Println(line)
	}

	if h != nil {
		// Warm restart: capture the sidecar, reopen with it, replay.
		if err := h.restart(true); err != nil {
			return fmt.Errorf("warm restart: %w", err)
		}
		gen.base = h.base()
		rep.WarmRestart = replayRepeats(gen, specs, *repeats)
		printPhase("warm-restart", rep.WarmRestart)
		misses := 0
		for cl, lat := range rep.WarmRestart.Classes {
			if cl != "query-hit" {
				misses += lat.Count
			}
		}
		rep.WarmServedWithoutTraining = misses == 0 && rep.WarmRestart.Errors == 0

		// Cold restart: reopen without the sidecar, replay the same
		// repeats — every one retrains.
		if err := h.restart(false); err != nil {
			return fmt.Errorf("cold restart: %w", err)
		}
		gen.base = h.base()
		rep.ColdRestart = replayRepeats(gen, specs, *repeats)
		printPhase("cold-restart", rep.ColdRestart)

		warmP99 := phaseP99(rep.WarmRestart)
		coldP99 := phaseP99(rep.ColdRestart)
		if warmP99 > 0 {
			fmt.Printf("restart comparison: warm p99 %.2fms vs cold p99 %.2fms (%.0f× colder), warm served without training: %v\n",
				warmP99, coldP99, coldP99/warmP99, rep.WarmServedWithoutTraining)
		}
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

// ltHarness is the in-process server under test: a real TCP listener and
// http.Server over a database the harness owns, restartable warm (with
// the concept-cache sidecar) or cold (without).
type ltHarness struct {
	dbPath  string
	ccFile  string
	cacheMB int
	recall  float64
	db      *milret.Database
	srv     *http.Server
	ln      net.Listener
	done    chan error
}

// errCorpusReady stops the streaming corpus generator once the -images
// target is reached.
var errCorpusReady = errors.New("corpus target reached")

// startHarness builds (or opens) the store and starts serving it on an
// ephemeral local port. A synthetic corpus is generated item by item
// (synth.ObjectsEach) and ingested as it streams, so the harness never
// holds more than one decoded image — -images can exceed RAM-sized
// corpora without the builder itself becoming the bottleneck.
func startHarness(dbPath string, synthN, images, cacheMB int, recall float64) (*ltHarness, error) {
	h := &ltHarness{cacheMB: cacheMB, recall: recall}
	if dbPath == "" {
		dir, err := os.MkdirTemp("", "milret-loadtest-*")
		if err != nil {
			return nil, err
		}
		dbPath = filepath.Join(dir, "loadtest.milret")
		db, err := milret.NewDatabase(milret.Options{Resolution: 6, Regions: 9})
		if err != nil {
			return nil, err
		}
		perCat, target := synthN, 0
		if images > 0 {
			nCats := len(synth.ObjectCategories)
			perCat = (images + nCats - 1) / nCats
			target = images
		}
		added := 0
		err = synth.ObjectsEach(41, perCat, func(it synth.Item) error {
			if target > 0 && added >= target {
				return errCorpusReady
			}
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				return err
			}
			added++
			return nil
		})
		if err != nil && err != errCorpusReady {
			return nil, err
		}
		if err := db.Save(dbPath); err != nil {
			return nil, err
		}
		db.Close()
	}
	h.dbPath = dbPath
	h.ccFile = dbPath + ".ccache"
	if err := h.open(true); err != nil {
		return nil, err
	}
	return h, h.serve()
}

// open loads the database, warm (sidecar) or cold (no sidecar path).
func (h *ltHarness) open(warm bool) error {
	ccFile := h.ccFile
	if !warm {
		ccFile = ""
	}
	db, err := milret.LoadDatabase(h.dbPath, milret.Options{
		ConceptCacheMB: h.cacheMB, ConceptCacheFile: ccFile, Recall: h.recall,
	})
	if err != nil {
		return err
	}
	h.db = db
	return nil
}

func (h *ltHarness) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.ln = ln
	h.srv = &http.Server{Handler: server.New(h.db)}
	h.done = make(chan error, 1)
	go func() { h.done <- h.srv.Serve(ln) }()
	return nil
}

func (h *ltHarness) base() string { return "http://" + h.ln.Addr().String() }

// restart tears the server down the way a deploy does — close listener,
// flush (capturing the sidecar), release the store — and brings it back
// up, loading the sidecar (warm) or ignoring it (cold).
func (h *ltHarness) restart(warm bool) error {
	h.srv.Close()
	<-h.done
	if err := h.db.Flush(); err != nil {
		return err
	}
	if err := h.db.Close(); err != nil {
		return err
	}
	if err := h.open(warm); err != nil {
		return err
	}
	return h.serve()
}

func (h *ltHarness) stop() {
	if h.srv != nil {
		h.srv.Close()
		<-h.done
	}
	if h.db != nil {
		h.db.Close()
	}
}

// fetchLabeled lists the served image IDs grouped by label.
func fetchLabeled(base string) (map[string][]string, error) {
	resp, err := http.Get(base + "/v1/images")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []server.ImageInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	byLabel := map[string][]string{}
	for _, in := range infos {
		byLabel[in.Label] = append(byLabel[in.Label], in.ID)
	}
	return byLabel, nil
}

// fetchPrune reads the server's cumulative candidate-filter counters from
// /v1/stats; nil when the server has not run a top-k scan (the stats block
// is omitted) or the endpoint is unreachable.
func fetchPrune(base string) *server.PruneStatsResponse {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	return st.Prune
}

// measureAchievedRecall replays each query fingerprint twice — once through
// the filter at the requested recall, once at the exact tier — and
// returns the fraction of exact top-k results the calibrated scan kept. ok is
// false when no comparison could be made.
func measureAchievedRecall(g *ltGen, specs []ltSpec, recall float64) (float64, bool) {
	exact := -1.0
	total, kept := 0, 0
	for _, sp := range specs {
		req := server.QueryRequest{
			Positives: sp.Positives, Negatives: sp.Negatives, K: g.k, Mode: "identical",
			Recall: &recall,
		}
		var pruned, full server.QueryResponse
		if g.post("/v1/query", req, &pruned) != nil {
			return 0, false
		}
		req.Recall = &exact
		if g.post("/v1/query", req, &full) != nil {
			return 0, false
		}
		got := make(map[string]bool, len(pruned.Results))
		for _, r := range pruned.Results {
			got[r.ID] = true
		}
		for _, r := range full.Results {
			total++
			if got[r.ID] {
				kept++
			}
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(kept) / float64(total), true
}

func fetchIDs(base string) ([]string, error) {
	byLabel, err := fetchLabeled(base)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, group := range byLabel {
		ids = append(ids, group...)
	}
	sort.Strings(ids)
	return ids, nil
}

// buildSpecs derives n distinct example-based queries from the served
// corpus: rotating positive pairs within a label, negatives from the next
// label over. Deterministic, so a rerun (or a restarted server) sees the
// exact same fingerprints.
func buildSpecs(base string, n int) ([]ltSpec, int, error) {
	byLabel, err := fetchLabeled(base)
	if err != nil {
		return nil, 0, err
	}
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
	recall     *float64 // per-request pruning override; nil leaves the server default
	client     http.Client
}

func (g *ltGen) op(seq int) ltSample {
	start := time.Now()
	class, err := g.issue(seq)
	d := time.Since(start)
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
		Recall: g.recall,
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
	if err := g.post("/v1/retrieve/batch", server.BatchRetrieveRequest{Queries: qs, K: g.k, Recall: g.recall}, &resp); err != nil {
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runPhase drives the generator for the given duration: closed-loop
// (workers back to back) or open-loop (a shared pacer at rate ops/sec
// that workers drain, so a slow server accumulates queue delay in the
// measured latency rather than throttling offered load).
func runPhase(gen *ltGen, concurrency int, rate float64, duration time.Duration) *ltPhase {
	deadline := time.Now().Add(duration)
	var seq atomic.Int64
	var mu sync.Mutex
	var samples []ltSample

	var pace chan struct{}
	if rate > 0 {
		pace = make(chan struct{}, concurrency)
		interval := time.Duration(float64(time.Second) / rate)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for time.Now().Before(deadline) {
				<-tick.C
				select {
				case pace <- struct{}{}:
				default: // all workers busy: the tick's op is dropped, not queued forever
				}
			}
			close(pace)
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if pace != nil {
					if _, ok := <-pace; !ok {
						return
					}
				}
				s := gen.op(int(seq.Add(1) - 1))
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return summarize(samples, duration)
}

// replayRepeats issues each spec sequentially, repeats times in rotation —
// the repeat-query traffic a restarted replica sees first.
func replayRepeats(gen *ltGen, specs []ltSpec, repeats int) *ltPhase {
	start := time.Now()
	var samples []ltSample
	for i := 0; i < repeats; i++ {
		startOp := time.Now()
		class, err := gen.query(i % len(specs))
		if err != nil {
			class = "error"
		}
		samples = append(samples, ltSample{class: class, d: time.Since(startOp)})
	}
	return summarize(samples, time.Since(start))
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

// phaseP99 returns the worst per-class p99 of the query classes — the
// restart comparison's headline number.
func phaseP99(ph *ltPhase) float64 {
	worst := 0.0
	for cl, lat := range ph.Classes {
		if cl == "error" {
			continue
		}
		if lat.P99MS > worst {
			worst = lat.P99MS
		}
	}
	return worst
}

func printPhase(name string, ph *ltPhase) {
	fmt.Printf("%-13s %5d ops in %6.2fs (%d errors)\n", name+":", ph.Ops, ph.Seconds, ph.Errors)
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
