package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"milret"
	"milret/internal/core"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/index"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/qcache"
	"milret/internal/remote"
	"milret/internal/retrieval"
	"milret/internal/server"
	"milret/internal/store"
	"milret/internal/synth"
)

// prober collects layer-probe results. A probe replays inputs recorded
// during the run into one layer's public functions, several times, and
// reports the median; the first error stops the remaining probes.
type prober struct {
	prof profile
	out  map[string]metric
	err  error

	// The same store at three depths, kept open together so the scan
	// chain can time them back to back.
	sh  index.Sharded
	rdb *retrieval.Database
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// time measures fn under the profile's repetition rule.
func (p *prober) time(fn func()) time.Duration {
	if p.err != nil {
		return 0
	}
	return measure(p.prof.probeMin, p.prof.probeMax, p.prof.probeBudget, fn)
}

// sweep times one pass of fn over n recorded concepts and returns the
// per-concept mean. Concepts differ severalfold in scan cost, so every
// repetition of a scan probe covers the same concepts.
func (p *prober) sweep(n int, fn func(i int)) time.Duration {
	return p.time(over(n, fn)) / time.Duration(n)
}

// chain times several functions back to back, repetition by repetition,
// so drift on a shared box lands on all of them alike. It returns each
// function's median and the median of each successive difference
// (fns[0]−fns[1], fns[1]−fns[2], …): a layer's own time is the difference
// between a call into it and the call it makes into the layer below.
func (p *prober) chain(fns ...func()) (med, diff []time.Duration) {
	med, diff = make([]time.Duration, len(fns)), make([]time.Duration, len(fns)-1)
	if p.err != nil {
		return med, diff
	}
	samples := make([][]float64, len(fns))
	deltas := make([][]float64, len(fns)-1)
	start := time.Now()
	budget := p.prof.probeBudget * time.Duration(len(fns))
	for rep := 0; rep < p.prof.probeMax && (rep < p.prof.probeMin+1 || time.Since(start) < budget); rep++ {
		var prev float64
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			d := float64(time.Since(t0))
			if rep > 0 || p.prof.probeMax == 1 { // the first pass warms up
				samples[i] = append(samples[i], d)
				if i > 0 {
					deltas[i-1] = append(deltas[i-1], prev-d)
				}
			}
			prev = d
		}
	}
	for i := range med {
		med[i] = time.Duration(median(samples[i]))
	}
	for i := range diff {
		diff[i] = time.Duration(median(deltas[i]))
	}
	return med, diff
}

// over wraps fn into one pass over n recorded concepts, for chain.
func over(n int, fn func(i int)) func() {
	return func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
}

// once measures a probe too heavy or too stateful to repeat.
func (p *prober) once(fn func()) time.Duration {
	if p.err != nil {
		return 0
	}
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func gbps(bytes int, d time.Duration) float64 { return ratio(float64(bytes)/1e9, d.Seconds()) }

// probeInputs are the recorded inputs the probes replay.
type probeInputs struct {
	sets     []exampleSet
	geoms    []server.ConceptGeometry
	concepts []*milret.Concept
	scorers  []*core.Concept
	queries  []index.Query
	opts     milret.TrainOptions // what the workload's queries asked for
	beta     float64
	image    synth.Item // one scene image, for pixel and featurizer probes
	labelIDs []string   // IDs label-mutation probes may touch
}

func (in *probeInputs) concept(i int) *milret.Concept { return in.concepts[i%len(in.concepts)] }
func (in *probeInputs) scorer(i int) *core.Concept    { return in.scorers[i%len(in.scorers)] }
func (in *probeInputs) query(i int) index.Query       { return in.queries[i%len(in.queries)] }

// n is how many concepts a sweep covers; few is the shorter sweep of the
// probes that rank the whole corpus; batches is how many disjoint
// 8-concept batches a batch probe covers.
func (in *probeInputs) n() int       { return len(in.concepts) }
func (in *probeInputs) few() int     { return min(4, len(in.concepts)) }
func (in *probeInputs) batches() int { return max(1, len(in.concepts)/8) }

// batchOf returns n concepts starting at rotation i.
func batchOf[T any](xs []T, i, n int) []T {
	out := make([]T, n)
	for j := range out {
		out[j] = xs[(i+j)%len(xs)]
	}
	return out
}

func gatherInputs(r *runner, seed int64) (*probeInputs, error) {
	in := &probeInputs{beta: vectorBeta, labelIDs: r.w.mutateIDs}
	in.sets, in.geoms = r.w.sets, r.concepts
	if len(in.sets) > probeConcepts {
		in.sets, in.geoms = in.sets[:probeConcepts], in.geoms[:probeConcepts]
	}
	if r.plan != nil {
		in.beta = 0
		in.sets, in.geoms = r.recentSets, r.recentGeoms
		for _, it := range r.w.scenes.Items {
			in.labelIDs = append(in.labelIDs, it.ID)
		}
	}
	if len(in.sets) == 0 {
		return nil, fmt.Errorf("no queries completed: nothing to replay")
	}
	in.opts = milret.TrainOptions{Mode: milret.ConstrainedWeights, Beta: in.beta}
	for _, g := range in.geoms {
		c, err := milret.NewConcept(g.Point, g.Weights)
		if err != nil {
			return nil, err
		}
		in.concepts = append(in.concepts, c)
		in.scorers = append(in.scorers, &core.Concept{Point: g.Point, Weights: g.Weights})
		in.queries = append(in.queries, index.Query{Point: g.Point, Weights: g.Weights})
	}
	in.image = synth.ScenesN(seed, 1)[0]
	return in, nil
}

// runProbes measures every layer below the HTTP surface on this
// workload's own data, after the traced phase, in the same process.
func runProbes(cfg config, r *runner) (map[string]metric, error) {
	p := &prober{prof: cfg.profile(), out: map[string]metric{}}
	in, err := gatherInputs(r, cfg.seed)
	if err != nil {
		return nil, err
	}

	// Every workload ends with a store on disk: cold_feedback saves its
	// in-memory database to make one. mixed_rw's probes (and its restart
	// check, which the traced run owes too) work on a copy taken as the
	// files sit; the other workloads shut the live stack down and probe
	// the store it leaves, sparing a 160 MB copy.
	if r.w.storePath == "" {
		r.w.storePath = filepath.Join(r.w.dir, "store", "store.milret")
		if err := os.MkdirAll(r.w.storeDir(), 0o755); err != nil {
			return nil, err
		}
		if err := r.st.db.Save(r.w.storePath); err != nil {
			return nil, fmt.Errorf("save cold_feedback store: %w", err)
		}
	}
	storePath := r.w.storePath
	if r.w.name == wlMixedRW {
		if storePath, err = r.snapshotStore("probe"); err != nil {
			return nil, err
		}
		p.check(r.verifyDurability(storePath))
	} else {
		r.cli.close()
		if err := r.st.close(); err != nil {
			return nil, err
		}
	}
	snapshots, err := snapshotFiles(storePath)
	if err != nil {
		return nil, err
	}

	p.probeCodec(in)
	p.probeQCache(in)
	p.probeFeature(in)
	small := p.probeStore(r.w.dir, snapshots[0], in)
	p.probeOpen(storePath, in)
	// probeOpen leaves the store as snapshots only: from here on the
	// public library, the database layer and the flat index all read the
	// very same freshly mapped files.
	if flats := p.openFlats(snapshots); p.err == nil {
		p.probeMat(flats[0], in)
		p.probeIndex(flats, in)
		p.probeRetrieval(flats, in)
		p.probeScanChain(storePath, in)
	}
	p.probeMutations(small, in)
	p.probeCore(storePath, in)
	p.probeRemote(snapshots, storePath, in)
	return p.out, p.err
}

// snapshotFiles lists the flat snapshot files of the store at path: the
// shards a manifest names, or the single file itself.
func snapshotFiles(path string) ([]string, error) {
	isManifest, err := store.IsManifest(path)
	if err != nil {
		return nil, err
	}
	if !isManifest {
		return []string{path}, nil
	}
	return store.ReadManifest(path)
}

// cannedBackend answers every call with fixed values and no work, so a
// handler over it spends its time on HTTP and JSON alone.
type cannedBackend struct {
	server.Backend // nil: the codec probes never reach an unlisted method
	concept        *milret.Concept
	results        []milret.Result
}

func (c cannedBackend) Recall() float64 { return 0 }

func (c cannedBackend) TrainCachedContext(context.Context, []string, []string, milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	return c.concept, milret.CacheHit, nil
}

func (c cannedBackend) Retrieve(context.Context, *milret.Concept, int, []string, float64) ([]milret.Result, error) {
	return c.results, nil
}

func (c cannedBackend) RetrieveBatch(_ context.Context, cs []*milret.Concept, _ int, _ []string, _ float64) ([][]milret.Result, error) {
	out := make([][]milret.Result, len(cs))
	for i := range out {
		out[i] = c.results
	}
	return out, nil
}

// probeCodec isolates request decode + reply encode: the real handler
// over a backend that does nothing.
func (p *prober) probeCodec(in *probeInputs) {
	results := make([]milret.Result, topK)
	for i := range results {
		results[i] = milret.Result{ID: imageID(i), Label: "cat0", Distance: 1.0 + float64(i)/7}
	}
	h := server.NewBackend(cannedBackend{concept: in.concept(0), results: results})
	q := vectorQuery
	q.beta = in.beta
	serve := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			p.check(fmt.Errorf("codec probe %s: status %d", path, rec.Code))
		}
	}
	queryJSON := queryBody(in.sets[0], q)
	batchJSON := mustJSON(server.BatchRetrieveRequest{Concepts: batchOf(in.geoms, 0, 8), K: topK})
	p.set("server.codec_query_us", us(p.time(func() { serve("/v1/query", queryJSON) })), "us")
	p.set("server.codec_batch_us", us(p.time(func() { serve("/v1/retrieve/batch", batchJSON) })), "us")
}

// probeQCache measures the cache alone: a resident key, and the
// bookkeeping a miss adds around a trainer that does nothing.
func (p *prober) probeQCache(in *probeInputs) {
	cache := qcache.New(cacheMB << 20)
	concept := in.scorer(0)
	train := func() (*core.Concept, error) { return concept, nil }
	var key qcache.Key
	_, _, err := cache.DoContext(context.Background(), key, train)
	p.check(err)
	p.set("qcache.hit_us", us(p.time(func() {
		_, _, _ = cache.DoContext(context.Background(), key, train) // cannot fail: resident key
	})), "us")
	var n uint64
	p.set("qcache.miss_overhead_us", us(p.time(func() {
		n++
		var k qcache.Key
		for i := 0; i < 8; i++ {
			k[i] = byte(n >> (8 * i))
		}
		k[31] = 1
		_, _, _ = cache.DoContext(context.Background(), k, train) // the no-op trainer cannot fail
	})), "us")
}

// probeFeature measures the ingest path's two pure stages.
func (p *prober) probeFeature(in *probeInputs) {
	raw, _, err := pngBase64(in.image)
	p.check(err)
	var img image.Image
	p.set("feature.png_decode_ms", ms(p.time(func() {
		var err error
		img, err = png.Decode(bytes.NewReader(raw))
		p.check(err)
	})), "ms")
	if img == nil {
		return
	}
	p.set("feature.bag_ms", ms(p.time(func() {
		_, err := feature.BagFromImage("probe", gray.FromImage(img), feature.Options{})
		p.check(err)
	})), "ms")
}

// smallStoreRecords sizes the prefix store the write-heavy probes use:
// 4,000 records are 32 MB at 10×100. Rewriting and compacting all 160 MB
// of warm_scan's store would cost a traced run between five and thirty
// seconds, depending on how the sandbox's disk feels that minute.
const smallStoreRecords = 4000

// probeStore measures the storage formats on a prefix of the workload's
// first snapshot file — flat write/open/verify, WAL append/sync/replay,
// the concept-cache sidecar — and returns the prefix store it wrote, for
// the mutation probes.
func (p *prober) probeStore(dir, snapshot string, in *probeInputs) (small string) {
	flat, err := store.OpenFlatFile(snapshot)
	if p.check(err); err != nil {
		return ""
	}
	defer flat.Close()
	recs := flat.Records[:min(len(flat.Records), smallStoreRecords)]
	blockBytes := 0
	for _, rec := range recs {
		blockBytes += len(rec.Bag.Instances) * flat.Dim * 8
	}
	tmp := filepath.Join(dir, "probe-store")
	p.check(os.MkdirAll(tmp, 0o755))

	rewritten := filepath.Join(tmp, "rewrite.milret")
	d := p.once(func() { p.check(store.WriteFlatFile(rewritten, flat.Dim, recs)) })
	p.set("store.write_flat_mbps", ratio(float64(blockBytes)/1e6, d.Seconds()), "MB/s")
	p.set("store.open_flat_ms", ms(p.time(func() {
		f, err := store.OpenFlatFile(rewritten)
		if p.check(err); err == nil {
			f.Close()
		}
	})), "ms")
	p.set("store.verify_gbps", gbps(blockBytes, p.time(func() {
		f, err := store.OpenFlatFile(rewritten)
		if p.check(err); err == nil {
			p.check(f.VerifyData())
			f.Close()
		}
	})), "GB/s")

	fp, err := store.SnapshotFingerprint(rewritten)
	p.check(err)
	walPath := filepath.Join(tmp, "probe.wal") // not next to the store: nothing may replay it
	wal, err := store.CreateWAL(walPath, flat.Dim, fp)
	if p.check(err); err != nil {
		return rewritten
	}
	sizeOf := func(path string) int64 {
		info, err := os.Stat(path)
		p.check(err)
		if err != nil {
			return 0
		}
		return info.Size()
	}
	p.check(wal.Sync())
	headerBytes := sizeOf(walPath)
	labelRec := store.WALRecord{Op: store.WALLabel, Rec: store.Record{ID: flat.Records[0].ID, Label: "relabel-probe"}}
	bag, err := feature.BagFromImage("probe-add", gray.FromImage(in.image.Image), feature.Options{})
	p.check(err)
	if bag != nil && bag.Dim() != flat.Dim {
		bag = flat.Records[0].Bag // a store with another geometry logs its own bags
	}
	labels, adds := 0, 0
	p.set("store.wal_append_us", us(p.time(func() { labels++; p.check(wal.Append(labelRec)) })), "us")
	p.check(wal.Sync())
	p.set("store.wal_bytes_per_mutation", ratio(float64(sizeOf(walPath)-headerBytes), float64(labels)), "B")
	p.set("store.wal_append_add_us", us(p.time(func() {
		adds++
		p.check(wal.Append(store.WALRecord{Op: store.WALAdd, Rec: store.Record{ID: fmt.Sprintf("probe-add-%d", adds), Bag: bag}}))
	})), "us")
	p.set("store.wal_sync_us", us(p.time(func() { p.check(wal.Append(labelRec)); p.check(wal.Sync()) })), "us")
	p.check(wal.Close())
	var replayed int
	d = p.time(func() {
		_, _, recs, err := store.ReadWAL(walPath)
		p.check(err)
		replayed = len(recs)
	})
	p.set("store.wal_replay_recs_per_s", ratio(float64(replayed), d.Seconds()), "rec/s")

	entries := make([]store.CacheEntry, probeConcepts)
	for i := range entries {
		g := in.geoms[i%len(in.geoms)]
		entries[i] = store.CacheEntry{Starts: 30, Evals: 3000, NegLogDD: 1, Point: g.Point, Weights: g.Weights}
		entries[i].Key[0] = byte(i)
	}
	sidecar := filepath.Join(tmp, "probe.ccache")
	p.set("store.sidecar_write_ms", ms(p.time(func() { p.check(store.WriteCacheSidecar(sidecar, flat.Dim, entries)) })), "ms")
	p.set("store.sidecar_read_ms", ms(p.time(func() {
		_, _, err := store.ReadCacheSidecar(sidecar)
		p.check(err)
	})), "ms")
	return rewritten
}

// openFlats opens every snapshot zero-copy, for the scan-layer probes.
func (p *prober) openFlats(snapshots []string) []*store.FlatDB {
	var flats []*store.FlatDB
	for _, path := range snapshots {
		f, err := store.OpenFlatFile(path)
		if p.check(err); err != nil {
			return nil
		}
		flats = append(flats, f)
	}
	return flats
}

// probeMat measures the kernels on the raw block: the full stream with
// and without the true k-th-best cutoff, the copy ceiling of this box,
// the box screen and one hot distance.
func (p *prober) probeMat(flat *store.FlatDB, in *probeInputs) {
	q := in.query(0)
	rows := len(flat.Data) / flat.Dim
	inf := math.Inf(1)
	var sink float64
	d := p.time(func() { sink += mat.MinWeightedSqDistRows(q.Point, q.Weights, flat.Data, inf, false) })
	p.set("mat.minrows_ns_per_row", ratio(float64(d), float64(rows)), "ns")
	p.set("mat.stream_gbps", gbps(len(flat.Data)*8, d), "GB/s")

	// The cutoff a finished scan would hold: the true k-th best distance.
	kth := kthBestDist(flat, q, topK)
	d = p.time(func() { sink += mat.MinWeightedSqDistRows(q.Point, q.Weights, flat.Data, kth, true) })
	p.set("mat.minrows_pruned_ns_per_row", ratio(float64(d), float64(rows)), "ns")

	dst := make([]float64, len(flat.Data))
	d = p.time(func() { copy(dst, flat.Data) })
	p.set("mat.copy_gbps", gbps(len(flat.Data)*8, d), "GB/s")

	boxDims := min(flat.Dim, index.ScreenBoxDims)
	boxes := make([]float32, len(flat.Counts)*boxDims*mat.BoxStride)
	rep := make([]float32, flat.Dim)
	off := 0
	for b, n := range flat.Counts {
		mat.PackBagSketch(flat.Dim, flat.Data[off*flat.Dim:(off+n)*flat.Dim], boxes[b*boxDims*mat.BoxStride:(b+1)*boxDims*mat.BoxStride], rep)
		off += n
	}
	rejected := 0
	d = p.time(func() {
		for b := range flat.Counts {
			if mat.BoxBoundExceeds(q.Point, q.Weights, boxes[b*boxDims*mat.BoxStride:(b+1)*boxDims*mat.BoxStride], kth) {
				rejected++
			}
		}
	})
	p.set("mat.boxbound_ns_per_bag", ratio(float64(d), float64(len(flat.Counts))), "ns")
	row := flat.Data[:flat.Dim]
	d = p.time(func() {
		for i := 0; i < 1000; i++ {
			sink += mat.WeightedSqDistBlocked(row, q.Point, q.Weights)
		}
	})
	p.set("mat.dist_ns", float64(d)/1000, "ns")
	if math.IsNaN(sink) || rejected < 0 {
		p.check(fmt.Errorf("mat probes produced NaN"))
	}
}

// kthBestDist returns the k-th smallest bag distance of the block.
func kthBestDist(flat *store.FlatDB, q index.Query, k int) float64 {
	dists := make([]float64, 0, len(flat.Counts))
	off := 0
	for _, n := range flat.Counts {
		dists = append(dists, mat.MinWeightedSqDistRows(q.Point, q.Weights, flat.Data[off*flat.Dim:(off+n)*flat.Dim], math.Inf(1), false))
		off += n
	}
	sort.Float64s(dists)
	return dists[min(k, len(dists))-1]
}

// probeIndex measures the flat scan engine on snapshots adopted from
// the same files.
func (p *prober) probeIndex(flats []*store.FlatDB, in *probeInputs) {
	sh := index.Sharded{}
	var blockBytes int
	d := p.once(func() {
		for _, f := range flats {
			ids := make([]string, len(f.Records))
			labels := make([]string, len(f.Records))
			for i, rec := range f.Records {
				ids[i], labels[i] = rec.ID, rec.Label
			}
			x, err := index.FromFlat(f.Dim, f.Data, f.Counts, ids, labels)
			if p.check(err); err != nil {
				return
			}
			sh = append(sh, x.Snapshot())
			blockBytes += len(f.Data) * 8
		}
	})
	p.set("index.build_s", d.Seconds(), "s")
	if p.err != nil {
		return
	}
	p.sh = sh
	par := runtime.NumCPU()
	n := time.Duration(in.n())
	topk, _ := p.chain(
		over(in.n(), func(i int) { sh.TopK(in.query(i), topK, nil, 1) }),
		over(in.n(), func(i int) { sh.TopK(in.query(i), topK, nil, par) }))
	p.set("index.topk_p1_ms", ms(topk[0]/n), "ms")
	p.set("index.par_speedup", ratio(float64(topk[0]), float64(topk[1])), "ratio")
	p.set("index.topk_pruned_ms", ms(p.sweep(in.n(), func(i int) {
		sh.TopKPruned(in.query(i), topK, nil, par, index.PruneOpts{Recall: 1})
	})), "ms")
	var st index.PruneStats
	for i := range in.queries {
		sh.TopKPruned(in.query(i), topK, nil, 1, index.PruneOpts{Recall: 1, Stats: &st})
	}
	p.set("index.prune_reject_ratio", ratio(float64(st.Rejected.Load()), float64(st.Screened.Load())), "ratio")
	multi := p.sweep(in.batches(), func(b int) { sh.MultiTopK(batchOf(in.queries, 8*b, 8), topK, nil, par) })
	seq := p.sweep(in.batches(), func(b int) {
		for _, q := range batchOf(in.queries, 8*b, 8) {
			sh.TopK(q, topK, nil, par)
		}
	})
	p.set("index.multitopk8_ms", ms(multi), "ms")
	p.set("index.seqtopk8_ms", ms(seq), "ms")
	p.set("index.batch_gain", ratio(float64(seq), float64(multi)), "ratio")
	rank := p.sweep(in.few(), func(i int) { sh.Rank(in.query(i), nil, par) })
	p.set("index.rank_ms", ms(rank), "ms")
	p.set("index.rank_gbps", gbps(blockBytes, rank), "GB/s")
}

// probeRetrieval measures the database layer above the index — locking,
// snapshots, merge, result conversion — and its mutation upkeep.
func (p *prober) probeRetrieval(flats []*store.FlatDB, in *probeInputs) {
	shards := make([]retrieval.FlatShard, len(flats))
	for s, f := range flats {
		items := make([]retrieval.Item, len(f.Records))
		for i, rec := range f.Records {
			items[i] = retrieval.Item{ID: rec.ID, Label: rec.Label, Bag: rec.Bag}
		}
		shards[s] = retrieval.FlatShard{Items: items, Data: f.Data}
	}
	db, err := retrieval.NewDatabaseFromFlats(shards, flats[0].Dim)
	if p.check(err); err != nil {
		return
	}
	p.rdb = db
	p.set("retrieval.topk_many8_ms", ms(p.sweep(in.batches(), func(b int) {
		scorers := make([]retrieval.Scorer, 8)
		for j, c := range batchOf(in.scorers, 8*b, 8) {
			scorers[j] = c
		}
		retrieval.TopKMany(db, scorers, topK, retrieval.Options{})
	})), "ms")
	p.set("retrieval.rank_ms", ms(p.sweep(in.few(), func(i int) { retrieval.Rank(db, in.scorer(i), retrieval.Options{}) })), "ms")
}

// openStore opens a store the way mixed_rw's server does and waits for
// its background verification.
func (p *prober) openStore(path string) *milret.Database {
	db, err := milret.LoadDatabase(path, milret.Options{
		ConceptCacheMB:   cacheMB,
		ConceptCacheFile: store.CacheSidecarPath(path),
	})
	if p.check(err); err != nil {
		return nil
	}
	p.check(awaitVerified(db.Verification))
	return db
}

// probeOpen measures opening the store: first as the run left it (log
// replay, sidecar warm-load, cached training on what was loaded), then —
// with the mutation logs and sidecar removed — the snapshots alone.
func (p *prober) probeOpen(storePath string, in *probeInputs) {
	var db *milret.Database
	p.set("milret.reopen_replay_s", p.once(func() { db = p.openStore(storePath) }).Seconds(), "s")
	if db == nil {
		return
	}
	if st := db.Stats(); st.Instances > 0 {
		total, err := dirBytes(filepath.Dir(storePath))
		p.check(err)
		p.set("store.disk_bytes_per_user_byte", ratio(float64(total), float64(st.Instances*st.Dim*8)), "ratio")
	}
	ctx := context.Background()
	hot := in.sets[:min(len(in.sets), 4)]
	for _, es := range hot {
		_, _, err := db.TrainCachedContext(ctx, es.Positives, es.Negatives, in.opts)
		p.check(err)
	}
	i := 0
	p.set("milret.train_hit_ms", ms(p.time(func() {
		i++
		es := hot[i%len(hot)]
		_, out, err := db.TrainCachedContext(ctx, es.Positives, es.Negatives, in.opts)
		p.check(err)
		if err == nil && out != milret.CacheHit {
			p.check(fmt.Errorf("train_hit probe: outcome %v", out))
		}
	})), "ms")
	p.check(db.Close())
	p.check(removeSideFiles(filepath.Dir(storePath)))
	p.set("milret.open_s", p.time(func() {
		if fresh := p.openStore(storePath); fresh != nil {
			p.check(fresh.Close())
		}
	}).Seconds(), "s")
}

// probeMutations measures the write side on the prefix store: label and
// pixel updates and the flush that acknowledges them through the public
// library, compaction and the stall it causes a concurrent reader, then
// the database layer's own upkeep (row block, sketches, tombstones).
func (p *prober) probeMutations(small string, in *probeInputs) {
	db := p.openStore(small)
	if db == nil {
		return
	}
	defer db.Close()
	ids := db.IDs()
	touched := 0
	target := func() string { touched++; return ids[touched%len(ids)] }
	p.set("milret.update_label_ms", ms(p.time(func() { p.check(db.UpdateImage(target(), "probe-relabel", nil)) })), "ms")
	p.check(db.Flush())
	p.set("milret.flush_ms", ms(p.time(func() {
		p.check(db.UpdateImage(target(), "probe-flush", nil))
		p.check(db.Flush())
	})), "ms")
	pixelID := target()
	p.set("milret.update_pixels_ms", ms(p.time(func() { p.check(db.UpdateImage(pixelID, "probe-pixels", in.image.Image)) })), "ms")
	p.check(db.Flush())

	// One reader keeps querying while Compact rewrites every shard; its
	// worst latency is the stall compaction imposes on the foreground.
	var stall time.Duration
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			db.RetrieveExcluding(in.concept(j), topK, nil)
			if d := time.Since(t0); d > stall {
				stall = d
			}
		}
	}()
	p.set("milret.compact_ms", ms(p.once(func() { p.check(db.Compact()) })), "ms")
	close(stop)
	wg.Wait()
	p.set("milret.compact_stall_ms", ms(stall), "ms")

	flat, err := store.OpenFlatFile(small)
	if p.check(err); err != nil {
		return
	}
	defer flat.Close()
	items := make([]retrieval.Item, len(flat.Records))
	for i, rec := range flat.Records {
		items[i] = retrieval.Item{ID: rec.ID, Label: rec.Label, Bag: rec.Bag}
	}
	rdb, err := retrieval.NewDatabaseFromFlat(items, flat.Dim, flat.Data)
	if p.check(err); err != nil {
		return
	}
	added := 0
	p.set("retrieval.add_us", us(p.time(func() {
		added++
		bag := &mil.Bag{ID: fmt.Sprintf("probe-added-%d", added), Instances: flat.Records[0].Bag.Instances}
		p.check(rdb.Add(retrieval.Item{ID: bag.ID, Label: "probe", Bag: bag}))
	})), "us")
	p.set("retrieval.update_label_us", us(p.time(func() { p.check(rdb.UpdateLabel(target(), "probe-relabel")) })), "us")
	p.check(rdb.Delete(items[len(items)-1].ID))
	p.set("retrieval.compact_ms", ms(p.once(rdb.Compact)), "ms")
}

// probeScanChain times one query at three depths over the same files —
// the public library, the database layer under it, the flat index under
// that — back to back; the differences are the upper two layers' own
// time. Then the library's other two retrieval entry points.
func (p *prober) probeScanChain(storePath string, in *probeInputs) {
	db := p.openStore(storePath)
	if db == nil {
		return
	}
	defer db.Close()
	par := runtime.NumCPU()
	n := time.Duration(in.n())
	scan, self := p.chain(
		over(in.n(), func(i int) { db.RetrieveExcluding(in.concept(i), topK, nil) }),
		over(in.n(), func(i int) { retrieval.TopK(p.rdb, in.scorer(i), topK, retrieval.Options{}) }),
		over(in.n(), func(i int) { p.sh.TopK(in.query(i), topK, nil, par) }))
	p.set("milret.retrieve_ms", ms(scan[0]/n), "ms")
	p.set("retrieval.topk_ms", ms(scan[1]/n), "ms")
	p.set("index.topk_ms", ms(scan[2]/n), "ms")
	p.set("milret.retrieve_self_ms", ms(self[0]/n), "ms")
	p.set("retrieval.self_ms", ms(self[1]/n), "ms")
	p.set("milret.retrieve_pruned_ms", ms(p.sweep(in.n(), func(i int) {
		db.RetrieveExcluding(in.concept(i), topK, nil, milret.WithRecall(1))
	})), "ms")
	p.set("milret.retrieve_many8_ms", ms(p.sweep(in.batches(), func(b int) {
		_, err := db.RetrieveMany(batchOf(in.concepts, 8*b, 8), topK, nil)
		p.check(err)
	})), "ms")
}

// probeCore trains the workload's first example set directly, at full
// and at single parallelism.
func (p *prober) probeCore(storePath string, in *probeInputs) {
	db, err := milret.LoadDatabase(storePath, milret.Options{})
	if p.check(err); err != nil {
		return
	}
	defer db.Close()
	ds := &mil.Dataset{}
	bagOf := func(id string) *mil.Bag {
		eb, ok := db.ExampleBag(id)
		if !ok {
			p.check(fmt.Errorf("core probe: example %s missing from the store copy", id))
			return nil
		}
		bag := &mil.Bag{ID: id}
		for _, row := range eb.Instances {
			bag.Instances = append(bag.Instances, mat.Vector(row))
		}
		return bag
	}
	for _, id := range in.sets[0].Positives {
		ds.Positive = append(ds.Positive, bagOf(id))
	}
	for _, id := range in.sets[0].Negatives {
		ds.Negative = append(ds.Negative, bagOf(id))
	}
	if p.err != nil {
		return
	}
	cfg := core.Config{Mode: core.SumConstraint, Beta: in.beta}
	var concept *core.Concept
	train := func(par int) time.Duration {
		c := cfg
		c.Parallelism = par
		return p.time(func() {
			var err error
			concept, err = core.Train(ds, c)
			p.check(err)
		})
	}
	trainN, train1 := train(0), train(1)
	if concept == nil {
		return
	}
	p.set("core.train_ms", ms(trainN), "ms")
	p.set("core.train_p1_ms", ms(train1), "ms")
	p.set("core.par_speedup", ratio(float64(train1), float64(trainN)), "ratio")
	p.set("core.starts_per_train", float64(concept.Starts), "count")
	p.set("core.evals_per_train", float64(concept.Evals), "count")
	p.set("core.us_per_eval", ratio(us(train1), float64(concept.Evals)), "us")
}

// probeRemote serves the store copy the distributed way — one shard
// server per snapshot file behind a coordinator — and measures the RPC
// tier against the same partition scanned in-process.
func (p *prober) probeRemote(snapshots []string, storePath string, in *probeInputs) {
	if p.err != nil {
		return
	}
	t := newTracer()
	w := &world{name: wlFanout, partPaths: snapshots}
	st := &stack{}
	if err := st.startPartitions(w, t); err != nil {
		p.check(err)
		_ = st.close()
		return
	}
	defer func() { p.check(st.close()) }()
	ctx := context.Background()
	cli := remote.NewClient(st.shards[0].URL, remote.DefaultRPCTimeout, 0, remote.DefaultBackoff)
	part := st.parts[0]
	geom := func(i int) remote.Geometry {
		g := in.geoms[i%len(in.geoms)]
		return remote.Geometry{Point: g.Point, Weights: g.Weights}
	}

	p.set("remote.ping_us", us(p.time(func() {
		_, err := cli.Ping(ctx)
		p.check(err)
	})), "us")
	frame := make([]byte, 40<<10)
	p.set("remote.frame_codec_us", us(p.time(func() {
		var buf bytes.Buffer
		p.check(remote.WriteFrame(&buf, 1, frame))
		_, _, err := remote.ReadFrame(&buf)
		p.check(err)
	})), "us")
	n := time.Duration(in.n())
	rpc, hop := p.chain(
		over(in.n(), func(i int) {
			_, err := cli.TopK(ctx, remote.TopKRequest{K: topK, Concept: geom(i)})
			p.check(err)
		}),
		over(in.n(), func(i int) { part.RetrieveExcluding(in.concept(i), topK, nil) }))
	p.set("remote.topk_rpc_ms", ms(rpc[0]/n), "ms")
	p.set("remote.shard_scan_ms", ms(rpc[1]/n), "ms")
	p.set("remote.rpc_overhead_ms", ms(hop[0]/n), "ms")
	p.set("remote.fetch_ms", ms(p.time(func() {
		_, err := cli.Fetch(ctx, in.sets[0].ids())
		p.check(err)
	})), "ms")
	ids := part.IDs()
	touched := 0
	p.set("remote.mutate_rpc_ms", ms(p.time(func() {
		touched++
		id := ids[touched%len(ids)]
		_, err := cli.Mutate(ctx, remote.MutateRequest{Kind: remote.MutLabel, ID: id, Label: "probe-rpc"})
		p.check(err)
	})), "ms")

	coord := st.coord
	es := in.sets[0]
	_, _, err := coord.TrainCachedContext(ctx, es.Positives, es.Negatives, in.opts)
	p.check(err)
	p.set("remote.coord_train_hit_ms", ms(p.time(func() {
		_, out, err := coord.TrainCachedContext(ctx, es.Positives, es.Negatives, in.opts)
		p.check(err)
		if err == nil && out != milret.CacheHit {
			p.check(fmt.Errorf("coord_train_hit probe: outcome %v", out))
		}
	})), "ms")
	// Each coordinator retrieval is recorded as one backend span whose
	// children are the shard handlers it fanned out to — back to back
	// against the same store scanned in one process.
	local, err := milret.LoadDatabase(storePath, milret.Options{})
	if p.check(err); err != nil {
		return
	}
	defer local.Close()
	t.on.Store(true)
	fan, overhead := p.chain(
		over(in.n(), func(i int) {
			end := t.begin(spanBackend + "Retrieve")
			_, err := coord.Retrieve(ctx, in.concept(i), topK, nil, 0)
			end()
			p.check(err)
		}),
		over(in.n(), func(i int) { local.RetrieveExcluding(in.concept(i), topK, nil) }))
	t.on.Store(false)
	p.set("remote.coord_retrieve_ms", ms(fan[0]/n), "ms")
	p.set("remote.fanout_overhead_ms", ms(overhead[0]/n), "ms")
	spans := t.take()
	var busy, slowest, rpcs []float64
	perCall := map[int][]int64{}
	for _, s := range spans {
		if s.Name == spanShardHandler && s.Parent >= 0 {
			perCall[s.Parent] = append(perCall[s.Parent], s.dur())
		}
	}
	for _, durs := range perCall {
		var sum, maxD int64
		for _, d := range durs {
			sum += d
			maxD = max(maxD, d)
		}
		busy = append(busy, float64(sum)/1e6)
		slowest = append(slowest, float64(maxD)/1e6)
		rpcs = append(rpcs, float64(len(durs)))
	}
	p.set("remote.shard_busy_ms", median(busy), "ms")
	p.set("remote.slowest_shard_ms", median(slowest), "ms")
	p.set("remote.rpcs_per_query", median(rpcs), "count")
	p.set("remote.degraded_queries", float64(coord.Stats().DegradedQueries), "count")
}
