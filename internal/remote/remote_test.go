package remote

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"milret"
	"milret/internal/store"
	"milret/internal/synth"
)

// fastOpts keeps featurization cheap: resolution 6 / 9 regions is the
// smallest supported geometry and the tests only care about determinism,
// not retrieval quality.
var fastOpts = milret.Options{Resolution: 6, Regions: 9}

// buildStore featurizes a small object corpus into a flat store at
// dir/src.milret and returns its path plus the image IDs in insertion
// order.
func buildStore(t *testing.T, dir string) (string, []string) {
	t.Helper()
	db, err := milret.NewDatabase(fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, it := range synth.ObjectsN(9, 2) {
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, it.ID)
	}
	src := filepath.Join(dir, "src.milret")
	if err := db.Save(src); err != nil {
		t.Fatal(err)
	}
	db.Close()
	return src, ids
}

// openVerified opens a store with its checksum verified, closed again
// when the test ends.
func openVerified(t *testing.T, path string) *milret.Database {
	t.Helper()
	db, err := milret.LoadDatabase(path, milret.Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// cluster is a 4-partition topology over a resharded copy of one store,
// each partition served by a real shard server over loopback HTTP, plus
// two in-process references holding the identical data: the un-sharded
// source (ref) and a second 4-way reshard of it opened as one database
// (sharded).
type cluster struct {
	ref      *milret.Database
	sharded  *milret.Database
	coord    *Coordinator
	topo     *Topology
	shardDBs []*milret.Database
	servers  []*httptest.Server
	ids      []string
}

// close stops the coordinator and the shard servers; the databases
// behind them close after it (openVerified registered them earlier).
func (cl *cluster) close() {
	cl.coord.Close()
	for _, s := range cl.servers {
		if s != nil {
			s.Close()
		}
	}
}

// startCluster builds the store, reshards it 4 ways (twice: one copy for
// the shard servers, one for the in-process 4-shard reference, so their
// journals stay apart) and wires the topology.
func startCluster(t *testing.T, partial string) *cluster {
	t.Helper()
	dir := t.TempDir()
	src, ids := buildStore(t, dir)
	dst, inproc := filepath.Join(dir, "sharded.milret"), filepath.Join(dir, "inproc.milret")
	for _, p := range []string{dst, inproc} {
		if err := milret.Reshard(src, p, 4); err != nil {
			t.Fatal(err)
		}
	}
	cl := &cluster{ref: openVerified(t, src), sharded: openVerified(t, inproc), ids: ids}
	if n := cl.sharded.ShardCount(); n != 4 {
		t.Fatalf("in-process sharded reference has %d shards", n)
	}

	parts := make([]PartitionSpec, 4)
	for i := range parts {
		sdb := openVerified(t, store.ShardPath(dst, i))
		cl.shardDBs = append(cl.shardDBs, sdb)
		mux := http.NewServeMux()
		mux.Handle(RPCPath, NewShardServer(sdb))
		srv := httptest.NewServer(mux)
		cl.servers = append(cl.servers, srv)
		parts[i] = PartitionSpec{Name: names4[i], Addr: srv.URL}
	}
	cl.topo = &Topology{Partitions: parts, Partial: partial}
	var err error
	cl.coord, err = NewCoordinator(cl.topo, CoordinatorOptions{ConceptCacheMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.close)
	return cl
}

var names4 = []string{"p0", "p1", "p2", "p3"}

// trainRef trains a concept on the reference database from a
// deterministic example split.
func trainRef(t *testing.T, cl *cluster, seed int) (*milret.Concept, []string, []string) {
	t.Helper()
	pos := []string{cl.ids[seed%len(cl.ids)], cl.ids[(seed+7)%len(cl.ids)]}
	neg := []string{cl.ids[(seed+19)%len(cl.ids)]}
	c, err := cl.ref.Train(pos, neg, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, pos, neg
}

func wantIdentical(t *testing.T, what string, got, want []milret.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		limit := len(got)
		if len(want) > limit {
			limit = len(want)
		}
		for i := 0; i < limit; i++ {
			var g, w milret.Result
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("%s: rank %d differs:\n  distributed: %+v\n  in-process:  %+v", what, i, g, w)
			}
		}
		t.Fatalf("%s: lengths differ: distributed %d, in-process %d", what, len(got), len(want))
	}
}

// TestCoordinatorTopKBitIdentical is the tentpole property: a 4-way
// distributed top-k (seeded cutoffs piggybacking on the RPC) returns the
// exact result list — IDs, labels and float bits — of a single-process
// scan over the same data, one shard or four, across concepts, depths
// (k ≥ n included) and recall values, none of which changes the scan.
func TestCoordinatorTopKBitIdentical(t *testing.T) {
	cl := startCluster(t, PartialFail)
	ctx := context.Background()
	for seed := 0; seed < 5; seed++ {
		concept, pos, neg := trainRef(t, cl, seed)
		exclude := append(append([]string{}, pos...), neg...)
		for _, k := range []int{1, 5, 12, cl.ref.Len(), cl.ref.Len() + 10} {
			for _, recall := range []float64{0, 0.5, 1.0} {
				got, err := cl.coord.Retrieve(ctx, concept, k, exclude, recall)
				if err != nil {
					t.Fatalf("seed %d k %d recall %g: %v", seed, k, recall, err)
				}
				want := cl.ref.RetrieveExcluding(concept, k, exclude, milret.WithRecall(recall))
				wantIdentical(t, "topk", got, want)
				wantIdentical(t, "4-shard in-process topk", cl.sharded.RetrieveExcluding(concept, k, exclude, milret.WithRecall(recall)), want)
			}
		}
	}
}

// TestCoordinatorRankBitIdentical checks the full ranking — a Retrieve
// whose k covers every image — against the in-process exhaustive one.
func TestCoordinatorRankBitIdentical(t *testing.T) {
	cl := startCluster(t, PartialFail)
	concept, pos, neg := trainRef(t, cl, 3)
	exclude := append(append([]string{}, pos...), neg...)
	got, err := cl.coord.Retrieve(context.Background(), concept, cl.ref.Len(), exclude, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantIdentical(t, "rank", got, cl.ref.RankAllExcluding(concept, exclude))
	wantIdentical(t, "4-shard in-process rank", cl.sharded.RankAllExcluding(concept, exclude), got)
	if len(got) != cl.ref.Len()-len(exclude) {
		t.Fatalf("ranking covers %d images, want %d", len(got), cl.ref.Len()-len(exclude))
	}
}

// TestCoordinatorBatchBitIdentical checks the batched multi-concept
// path against the in-process batched scan.
func TestCoordinatorBatchBitIdentical(t *testing.T) {
	cl := startCluster(t, PartialFail)
	var concepts []*milret.Concept
	var exclude []string
	for seed := 0; seed < 3; seed++ {
		c, pos, neg := trainRef(t, cl, seed)
		concepts = append(concepts, c)
		exclude = append(exclude, pos...)
		exclude = append(exclude, neg...)
	}
	got, err := cl.coord.RetrieveBatch(context.Background(), concepts, 9, exclude, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cl.ref.RetrieveMany(concepts, 9, exclude)
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := cl.sharded.RetrieveMany(concepts, 9, exclude)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(inproc) != len(want) {
		t.Fatalf("batch answered %d lists, 4-shard in-process %d, want %d", len(got), len(inproc), len(want))
	}
	for i := range want {
		wantIdentical(t, "batch list", got[i], want[i])
		wantIdentical(t, "4-shard in-process batch list", inproc[i], want[i])
	}
}

// TestCoordinatorTrainingBitIdentical checks that a concept trained on
// the coordinator — examples fetched over the wire from the partitions
// that own them — carries the exact float bits of one trained where the
// data lives.
func TestCoordinatorTrainingBitIdentical(t *testing.T) {
	cl := startCluster(t, PartialFail)
	pos := []string{cl.ids[2], cl.ids[11], cl.ids[23]}
	neg := []string{cl.ids[5], cl.ids[17]}
	want, err := cl.ref.Train(pos, neg, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, outcome, err := cl.coord.TrainCachedContext(context.Background(), pos, neg, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Point(), want.Point()) || !reflect.DeepEqual(got.Weights(), want.Weights()) {
		t.Fatal("coordinator-trained concept differs from reference")
	}
	// The coordinator trains through its own cache: the same examples
	// again must hit, with the identical concept.
	again, outcome2, err := cl.coord.TrainCachedContext(context.Background(), pos, neg, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome2 == outcome && outcome2 != milret.CacheHit {
		t.Errorf("second training outcome = %v, want a cache hit (first was %v)", outcome2, outcome)
	}
	if !reflect.DeepEqual(again.Point(), want.Point()) {
		t.Fatal("cached concept differs")
	}
	// Unknown examples are a caller error, not a transport failure.
	if _, _, err := cl.coord.TrainCachedContext(context.Background(), []string{"no-such-image"}, nil, milret.TrainOptions{}); err == nil {
		t.Fatal("training on an unknown example succeeded")
	}
}

// TestCoordinatorMutations routes deletes and relabels by placement,
// mirrors them onto the reference and re-checks bit-identity including
// tombstones.
func TestCoordinatorMutations(t *testing.T) {
	cl := startCluster(t, PartialFail)
	ctx := context.Background()
	concept, pos, neg := trainRef(t, cl, 1)
	exclude := append(append([]string{}, pos...), neg...)

	// Delete a handful of images spread across partitions (skipping the
	// training examples so the concept stays valid on the reference).
	skip := map[string]bool{}
	for _, id := range exclude {
		skip[id] = true
	}
	deleted := 0
	for _, id := range cl.ids {
		if skip[id] || deleted >= 6 {
			continue
		}
		if err := cl.coord.DeleteImage(id); err != nil {
			t.Fatalf("delete %s: %v", id, err)
		}
		for _, ref := range []*milret.Database{cl.ref, cl.sharded} {
			if err := ref.DeleteImage(id); err != nil {
				t.Fatalf("reference delete %s: %v", id, err)
			}
		}
		deleted++
	}
	if cl.coord.Len() != cl.ref.Len() {
		t.Fatalf("coordinator Len %d, reference %d", cl.coord.Len(), cl.ref.Len())
	}

	// A relabel must land on the owner and read back through Label.
	target := pos[0]
	if err := cl.coord.UpdateImage(target, "relabelled", nil); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []*milret.Database{cl.ref, cl.sharded} {
		if err := ref.UpdateImage(target, "relabelled", nil); err != nil {
			t.Fatal(err)
		}
	}
	if label, ok, err := cl.coord.Label(target); err != nil || !ok || label != "relabelled" {
		t.Fatalf("Label(%s) = %q, %v, %v", target, label, ok, err)
	}
	if _, ok, err := cl.coord.Label("no-such-image"); err != nil || ok {
		t.Fatalf("Label(missing) = %v, %v", ok, err)
	}

	// Deleting a deleted image is a not-found verdict, not a transport
	// failure.
	if err := cl.coord.DeleteImage(cl.ids[0]); err == nil {
		t.Fatal("double delete succeeded")
	} else if re := (*RemoteError)(nil); !errors.As(err, &re) || re.Code != ErrCodeNotFound {
		t.Fatalf("double delete: %v (want not-found verdict)", err)
	}

	// Post-mutation scans stay bit-identical, tombstones, the relabelled
	// positive (not excluded here) and all.
	for _, ex := range [][]string{exclude, nil} {
		got, err := cl.coord.Retrieve(ctx, concept, 10, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantIdentical(t, "post-mutation topk", got, cl.ref.RetrieveExcluding(concept, 10, ex))
		wantIdentical(t, "4-shard in-process post-mutation topk", cl.sharded.RetrieveExcluding(concept, 10, ex), got)
		batch, err := cl.coord.RetrieveBatch(ctx, []*milret.Concept{concept}, 10, ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantIdentical(t, "post-mutation batch", batch[0], got)
		all, err := cl.coord.Retrieve(ctx, concept, cl.ref.Len(), ex, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantIdentical(t, "post-mutation rank", all, cl.ref.RankAllExcluding(concept, ex))
	}

	// The image listing covers exactly the live set.
	infos, err := cl.coord.Images()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != cl.ref.Len() {
		t.Fatalf("Images lists %d, reference holds %d", len(infos), cl.ref.Len())
	}
}

// TestCoordinatorStats checks the merged stats tree and the partition
// health block.
func TestCoordinatorStats(t *testing.T) {
	cl := startCluster(t, PartialDegrade)
	st := cl.coord.Stats()
	refSt := cl.ref.Stats()
	if st.Images != refSt.Images || st.Instances != refSt.Instances || st.Dim != refSt.Dim {
		t.Fatalf("merged totals (%d images, %d instances, dim %d) != reference (%d, %d, %d)",
			st.Images, st.Instances, st.Dim, refSt.Images, refSt.Instances, refSt.Dim)
	}
	if st.PartialPolicy != PartialDegrade {
		t.Errorf("PartialPolicy = %q", st.PartialPolicy)
	}
	if len(st.Partitions) != 4 {
		t.Fatalf("Partitions = %d rows", len(st.Partitions))
	}
	sum := 0
	for i, p := range st.Partitions {
		if p.Name != names4[i] {
			t.Errorf("partition %d name %q", i, p.Name)
		}
		if !p.Healthy {
			t.Errorf("partition %q unhealthy: %s", p.Name, p.LastError)
		}
		sum += p.Images
	}
	if sum != refSt.Images {
		t.Errorf("partition image counts sum to %d, want %d", sum, refSt.Images)
	}
	if st.Cache == nil {
		t.Error("coordinator cache stats missing")
	}
	if status, err := cl.coord.Verification(); status != milret.VerifyVerified || err != nil {
		t.Errorf("Verification = %v, %v", status, err)
	}

	// The stats op carries a shard's whole tree under its wire names.
	got, err := NewClient(cl.servers[0].URL, 0, 0, 0).Stats(context.Background())
	if want := cl.shardDBs[0].Stats(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("stats RPC = %+v, %v\nwant %+v", got, err, want)
	}

	// One query through the coordinator: the partitions' rows and scan
	// counters merge, the cache and training counters are its own.
	scans, train := st.Prune.Scans, st.Train
	concept, _, err := cl.coord.TrainCachedContext(context.Background(), cl.ids[:2], nil, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.coord.Retrieve(context.Background(), concept, 3, nil, 0); err != nil {
		t.Fatal(err)
	}
	st = cl.coord.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("Shards = %d rows", len(st.Shards))
	}
	var rows milret.ShardStats
	for i, row := range st.Shards {
		if row.Images != st.Partitions[i].Images {
			t.Errorf("shard row %d holds %d images, its partition %d", i, row.Images, st.Partitions[i].Images)
		}
		rows.Images += row.Images
		rows.Instances += row.Instances
		rows.IndexBytes += row.IndexBytes
	}
	if rows.Images != st.Images || rows.Instances != st.Instances || rows.IndexBytes != st.IndexBytes {
		t.Errorf("shard rows sum to %+v, totals %+v", rows, st)
	}
	if st.Prune.Scans != scans+4 || st.Prune.Admitted+st.Prune.Rejected != st.Prune.Screened {
		t.Errorf("merged prune counters after one query on 4 partitions: %+v (scans before: %d)", st.Prune, scans)
	}
	if st.Cache.Misses != 1 || st.Train.Starts <= train.Starts {
		t.Errorf("coordinator's own blocks: cache %+v, train %+v (before: %+v)", *st.Cache, st.Train, train)
	}
}

// TestSharedCutoffValues sanity-checks the piggybacked bound the shard
// returns: the k-th best distance on a full list, +Inf on a short one.
func TestSharedCutoffValues(t *testing.T) {
	cl := startCluster(t, PartialFail)
	concept, pos, neg := trainRef(t, cl, 2)
	cli := NewClient(cl.servers[0].URL, 0, 0, 0)
	geo := Geometry{Point: concept.Point(), Weights: concept.Weights()}
	exclude := append(append([]string{}, pos...), neg...)

	resp, err := cli.TopK(context.Background(), TopKRequest{K: 3, Concept: geo, Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("shard returned %d results", len(resp.Results))
	}
	if resp.Cutoff != resp.Results[2].Distance {
		t.Errorf("cutoff %v != 3rd distance %v", resp.Cutoff, resp.Results[2].Distance)
	}
	short, err := cli.TopK(context.Background(), TopKRequest{K: 10000, Concept: geo})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(short.Cutoff, 1) {
		t.Errorf("short list cutoff %v, want +Inf", short.Cutoff)
	}
}

// TestWrongDimGeometryIsBadRequest: geometry on a topk or multitopk frame is
// outside input, so a dimensionality the partition does not have must come
// back as a bad-request verdict — and the shard must keep serving. (Such a
// frame used to reach a scan worker goroutine and panic there, out of reach
// of net/http's per-request recover: one malformed frame killed the shard.)
func TestWrongDimGeometryIsBadRequest(t *testing.T) {
	cl := startCluster(t, PartialFail)
	ctx := context.Background()
	cli := NewClient(cl.servers[0].URL, 0, 0, 0)
	bad := Geometry{Point: []float64{0, 0, 0}, Weights: []float64{1, 1, 1}}

	wantBadRequest := func(op string, err error) {
		t.Helper()
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != ErrCodeBadRequest {
			t.Fatalf("%s with 3-dim geometry: err = %v, want a bad-request RemoteError", op, err)
		}
	}
	_, err := cli.TopK(ctx, TopKRequest{K: 5, Concept: bad})
	wantBadRequest("topk", err)
	_, err = cli.MultiTopK(ctx, MultiTopKRequest{K: 5, Concepts: []Geometry{bad}})
	wantBadRequest("multitopk", err)

	concept, _, _ := trainRef(t, cl, 1)
	got, err := cli.TopK(ctx, TopKRequest{K: 5, Concept: Geometry{Point: concept.Point(), Weights: concept.Weights()}})
	if err != nil {
		t.Fatalf("well-formed topk after the malformed frames: %v", err)
	}
	wantIdentical(t, "topk after malformed frames", got.Results, cl.shardDBs[0].Retrieve(concept, 5))
}

// TestCoordinatorCloseTwice: Close tolerates a concurrent and a repeated
// call, like milret.Database.Close (it used to close its stop channel twice).
func TestCoordinatorCloseTwice(t *testing.T) {
	cl := startCluster(t, PartialFail)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.coord.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := cl.coord.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}

// TestClientBareHostPort pins the address normalization: a topology
// may name partitions as bare "host:port" and the client must still
// form a valid RPC URL (http assumed).
func TestClientBareHostPort(t *testing.T) {
	cl := startCluster(t, PartialFail)
	bare := strings.TrimPrefix(cl.servers[0].URL, "http://")
	cli := NewClient(bare, 0, 0, 0)
	if cli.addr != "http://"+bare {
		t.Errorf("addr = %q, want %q", cli.addr, "http://"+bare)
	}
	if _, err := cli.Ping(context.Background()); err != nil {
		t.Fatalf("Ping over bare host:port addr: %v", err)
	}
}

// TestReshardedClusterMatchesDirectShards confirms the placement
// contract: every image the coordinator routes is actually live on the
// partition the hash names.
func TestReshardedClusterMatchesDirectShards(t *testing.T) {
	cl := startCluster(t, PartialFail)
	for _, id := range cl.ids {
		label, ok, err := cl.coord.Label(id)
		if err != nil || !ok {
			t.Fatalf("Label(%s) via owner: %v, %v", id, ok, err)
		}
		wantLabel, _ := cl.ref.Label(id)
		if label != wantLabel {
			t.Errorf("Label(%s) = %q, want %q", id, label, wantLabel)
		}
	}
}
