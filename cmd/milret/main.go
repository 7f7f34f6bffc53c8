// Command milret is the end-to-end CLI for the retrieval system:
//
//	milret gen   -kind scenes -dir corpus/         # generate a synthetic corpus as PNGs
//	milret build -dir corpus/ -db scenes.milret    # featurize into a binary store
//	milret query -db scenes.milret -pos id1,id2 -neg id3 -k 12
//	milret eval  -db scenes.milret -target waterfall
//
// gen writes <dir>/<id>.png plus a labels.csv mapping IDs to categories;
// build runs the §3.5 preprocessing pipeline over every PNG; query trains
// Diverse Density on the named examples and prints the top matches; eval
// runs the paper's automated feedback protocol and prints ranking metrics.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"image/png"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"milret"
	"milret/internal/mat"
	"milret/internal/remote"
	"milret/internal/server"
	"milret/internal/store"
	"milret/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard-serve":
		err = cmdShardServe(os.Args[2:])
	case "reshard":
		err = cmdReshard(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "milret: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: milret <gen|build|query|eval|serve|shard-serve|reshard|loadtest> [flags]")
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dbPath := fs.String("db", "db.milret", "database path")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	fastLoad := fs.Bool("fast-load", false, "skip the synchronous data checksum: zero-copy open (no decode, no copy, one sequential sketch pass), verified in the background (see /v1/healthz)")
	readOnly := fs.Bool("readonly", false, "refuse DELETE/PUT mutations")
	cacheMB := fs.Int("concept-cache-mb", 64, "memory bound of the trained-concept LRU cache in MB; repeat /v1/query requests skip training and concurrent identical ones coalesce (0 disables)")
	cacheFile := fs.String("concept-cache-file", "", `concept-cache sidecar path: hot trained concepts are persisted there on flush/shutdown and loaded on start, so a restarted replica answers repeat queries without retraining; "" defaults to <db>.ccache when the cache is enabled, "off" disables persistence`)
	topology := fs.String("topology", "", "coordinator mode: serve a topology file's partitions (shard-serve addresses) as one database; -db, -fast-load and -concept-cache-file are ignored")
	fs.Parse(args)

	fmt.Printf("distance kernel: %s\n", mat.Kernel())
	if *topology != "" {
		return serveTopology(*topology, *addr, *readOnly, remote.CoordinatorOptions{ConceptCacheMB: *cacheMB})
	}
	ccFile := resolveCacheFile(*cacheFile, *dbPath, *cacheMB)
	db, err := milret.LoadDatabase(*dbPath, milret.Options{
		VerifyOnLoad: !*fastLoad, ConceptCacheMB: *cacheMB, ConceptCacheFile: ccFile,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	cacheNote := "off"
	if *cacheMB > 0 {
		cacheNote = fmt.Sprintf("%dMB", *cacheMB)
		if ccFile != "" {
			warm := int64(0)
			if st := db.Stats(); st.Cache != nil {
				warm = st.Cache.WarmLoaded
			}
			cacheNote += fmt.Sprintf(", persisted to %s, %d warm", ccFile, warm)
		}
	}
	fmt.Printf("serving %d images (%d shards, concept cache %s) on http://%s (POST /v1/query)\n",
		db.Len(), db.ShardCount(), cacheNote, ln.Addr())
	return serveUntilSignal(db, ln, *readOnly, sig)
}

// resolveCacheFile maps the -concept-cache-file flag to an Options path:
// the empty default derives "<db>.ccache", "off" (or a disabled cache)
// means no persistence.
func resolveCacheFile(flagVal, dbPath string, cacheMB int) string {
	if cacheMB <= 0 || flagVal == "off" {
		return ""
	}
	if flagVal == "" {
		return store.CacheSidecarPath(dbPath)
	}
	return flagVal
}

// shutdownDrainTimeout bounds the graceful drain of in-flight requests on
// shutdown; a variable so the shutdown-under-load test can shorten it.
var shutdownDrainTimeout = 10 * time.Second

// serveUntilSignal runs the HTTP server on ln until a signal arrives (or
// the listener fails), then shuts down gracefully: in-flight requests are
// drained (bounded by a timeout), pending mutations are flushed to the
// write-ahead log, the concept cache is captured to its sidecar, and the
// database releases its memory mapping.
func serveUntilSignal(db *milret.Database, ln net.Listener, readOnly bool, sig <-chan os.Signal) error {
	h := server.New(db)
	h.ReadOnly = readOnly
	return serveHandlerUntilSignal(h, ln, sig, db.Flush, db.Close)
}

// serveHandlerUntilSignal is serveUntilSignal generalized over the
// handler and the backing resource: shard-serve mounts the RPC next to
// the JSON surface, and serve -topology fronts a coordinator instead of
// a database. flush runs after the drain (durability barrier), closeFn
// last (release).
func serveHandlerUntilSignal(h http.Handler, ln net.Listener, sig <-chan os.Signal, flush, closeFn func() error) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var err error
	select {
	case err = <-errc:
		// The listener failed outright; nothing is serving anymore.
	case s := <-sig:
		fmt.Printf("received %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), shutdownDrainTimeout)
		err = srv.Shutdown(ctx)
		cancel()
		if err != nil {
			// The drain timed out with handlers still running — typically
			// parked behind an in-flight training run (their own, or one
			// they coalesced onto). Shutdown does not cancel request
			// contexts; Close force-closes the remaining connections, which
			// does, releasing coalesced cache waiters (qcache.DoContext) so
			// the process always exits instead of deadlocking. Flight
			// leaders run their training to completion either way, and the
			// Flush below captures those concepts in the sidecar.
			fmt.Printf("drain timed out (%v), force-closing remaining connections\n", err)
			if cerr := srv.Close(); cerr == nil {
				err = nil // handled: degraded but completed shutdown
			}
		}
		<-errc // Serve has returned http.ErrServerClosed
	}
	if ferr := flush(); err == nil {
		err = ferr
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return err
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "scenes", "corpus kind: scenes or objects")
	dir := fs.String("dir", "corpus", "output directory")
	seed := fs.Int64("seed", 1998, "generation seed")
	perCat := fs.Int("per-category", 0, "images per category (0 = paper size)")
	fs.Parse(args)

	var items []synth.Item
	switch *kind {
	case "scenes":
		n := *perCat
		if n == 0 {
			n = synth.ScenesPerCategory
		}
		items = synth.ScenesN(*seed, n)
	case "objects":
		n := *perCat
		if n == 0 {
			n = synth.ObjectsPerCategory
		}
		items = synth.ObjectsN(*seed, n)
	default:
		return fmt.Errorf("unknown corpus kind %q", *kind)
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	labels, err := os.Create(filepath.Join(*dir, "labels.csv"))
	if err != nil {
		return err
	}
	defer labels.Close()
	w := bufio.NewWriter(labels)
	fmt.Fprintln(w, "id,label")
	for _, it := range items {
		f, err := os.Create(filepath.Join(*dir, it.ID+".png"))
		if err != nil {
			return err
		}
		if err := png.Encode(f, it.Image); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s,%s\n", it.ID, it.Label)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d images to %s\n", len(items), *dir)
	return nil
}

func readLabels(dir string) (map[string]string, error) {
	labels := map[string]string{}
	f, err := os.Open(filepath.Join(dir, "labels.csv"))
	if err != nil {
		if os.IsNotExist(err) {
			return labels, nil // labels are optional
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			continue
		}
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 2)
		if len(parts) == 2 {
			labels[parts[0]] = parts[1]
		}
	}
	return labels, sc.Err()
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	dir := fs.String("dir", "corpus", "input directory of PNG images")
	dbPath := fs.String("db", "db.milret", "output database path")
	resolution := fs.Int("resolution", 10, "sampling resolution h")
	regions := fs.Int("regions", 20, "region family size: 9, 20 or 42")
	shards := fs.Int("shards", 1, "shard count: >1 writes a MILRETS1 manifest plus one snapshot/WAL pair per shard")
	fs.Parse(args)

	db, err := milret.NewDatabase(milret.Options{Resolution: *resolution, Regions: *regions, Shards: *shards})
	if err != nil {
		return err
	}
	labels, err := readLabels(*dir)
	if err != nil {
		return err
	}
	entries, err := filepath.Glob(filepath.Join(*dir, "*.png"))
	if err != nil {
		return err
	}
	sort.Strings(entries)
	if len(entries) == 0 {
		return fmt.Errorf("no PNG images in %s", *dir)
	}
	for _, path := range entries {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		id := strings.TrimSuffix(filepath.Base(path), ".png")
		if err := db.AddImage(id, labels[id], img); err != nil {
			return err
		}
	}
	if err := db.Save(*dbPath); err != nil {
		return err
	}
	if db.ShardCount() > 1 {
		fmt.Printf("featurized %d images into %s (%d shards)\n", db.Len(), *dbPath, db.ShardCount())
	} else {
		fmt.Printf("featurized %d images into %s\n", db.Len(), *dbPath)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbPath := fs.String("db", "db.milret", "database path")
	pos := fs.String("pos", "", "comma-separated positive example IDs")
	neg := fs.String("neg", "", "comma-separated negative example IDs")
	k := fs.Int("k", 12, "number of results")
	mode := fs.String("mode", "constrained", "weight mode: original, identical, constrained")
	beta := fs.Float64("beta", 0.5, "sum-constraint level for constrained mode")
	fs.Parse(args)

	db, err := milret.LoadDatabase(*dbPath, milret.Options{VerifyOnLoad: true})
	if err != nil {
		return err
	}
	posIDs := splitIDs(*pos)
	negIDs := splitIDs(*neg)
	if len(posIDs) == 0 {
		return fmt.Errorf("at least one -pos example is required")
	}
	wm, err := milret.ParseWeightMode(*mode)
	if err != nil {
		return err
	}
	concept, err := db.Train(posIDs, negIDs, milret.TrainOptions{Mode: wm, Beta: *beta})
	if err != nil {
		return err
	}
	fmt.Printf("concept trained: -logDD = %.4f\n", concept.NegLogDD())
	exclude := append(append([]string{}, posIDs...), negIDs...)
	for i, r := range db.RetrieveExcluding(concept, *k, exclude) {
		label := r.Label
		if label == "" {
			label = "-"
		}
		fmt.Printf("%3d. %-28s %-12s dist=%.4f\n", i+1, r.ID, label, r.Distance)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dbPath := fs.String("db", "db.milret", "database path")
	target := fs.String("target", "", "target category (must exist in labels)")
	mode := fs.String("mode", "constrained", "weight mode")
	beta := fs.Float64("beta", 0.5, "sum-constraint level")
	rounds := fs.Int("rounds", 3, "training rounds")
	seed := fs.Int64("seed", 1, "example-selection seed")
	fs.Parse(args)

	db, err := milret.LoadDatabase(*dbPath, milret.Options{VerifyOnLoad: true})
	if err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("-target is required; labels present: %v", db.Labels())
	}
	wm, err := milret.ParseWeightMode(*mode)
	if err != nil {
		return err
	}

	// Simple protocol over the whole database: pick positive and negative
	// examples, train, mine false positives, repeat; report metrics over
	// the remaining images. Cap positives so at least half of the target
	// images stay retrievable — otherwise the metrics are vacuous.
	nTarget := 0
	for _, id := range db.IDs() {
		if lb, _ := db.Label(id); lb == *target {
			nTarget++
		}
	}
	if nTarget == 0 {
		return fmt.Errorf("no images labelled %q; labels present: %v", *target, db.Labels())
	}
	nPos := 5
	if nTarget/2 < nPos {
		nPos = nTarget / 2
	}
	if nPos < 1 {
		nPos = 1
	}
	var posIDs, negIDs []string
	for _, id := range shuffledIDs(db, *seed) {
		lb, _ := db.Label(id)
		if lb == *target && len(posIDs) < nPos {
			posIDs = append(posIDs, id)
		}
		if lb != *target && len(negIDs) < 5 {
			negIDs = append(negIDs, id)
		}
	}
	fmt.Printf("using %d positive and %d negative examples; %d %s images remain retrievable\n",
		len(posIDs), len(negIDs), nTarget-len(posIDs), *target)
	var concept *milret.Concept
	for round := 1; round <= *rounds; round++ {
		concept, err = db.Train(posIDs, negIDs, milret.TrainOptions{Mode: wm, Beta: *beta})
		if err != nil {
			return err
		}
		if round == *rounds {
			break
		}
		exclude := append(append([]string{}, posIDs...), negIDs...)
		added := 0
		for _, r := range db.RetrieveExcluding(concept, db.Len(), exclude) {
			if added == 5 {
				break
			}
			if r.Label != *target {
				negIDs = append(negIDs, r.ID)
				added++
			}
		}
		fmt.Printf("round %d: added %d false positives as negatives\n", round, added)
	}
	exclude := append(append([]string{}, posIDs...), negIDs...)
	results := db.RetrieveExcluding(concept, db.Len(), exclude)
	ap := milret.AveragePrecision(results, *target)
	pr := milret.PrecisionRecallCurve(results, *target)
	fmt.Printf("target %q: %d candidates, AP = %.3f\n", *target, len(results), ap)
	for _, g := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		for _, pt := range pr {
			if pt.Recall >= g {
				fmt.Printf("  precision at recall %.2f: %.3f\n", g, pt.Precision)
				break
			}
		}
	}
	return nil
}

func splitIDs(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// shuffledIDs returns the database IDs in a seed-determined order without
// pulling in math/rand's global state.
func shuffledIDs(db *milret.Database, seed int64) []string {
	ids := db.IDs()
	// xorshift-based Fisher-Yates for a stable, dependency-free shuffle.
	state := uint64(seed)*2685821657736338717 + 1
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := len(ids) - 1; i > 0; i-- {
		j := next(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}
