package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"milret"
	"milret/internal/remote"
	"milret/internal/server"
	"milret/internal/store"
	"milret/internal/synth"
)

// fastOpts is the smallest supported featurization (dim 36): the golden
// states care about the counters, not retrieval quality.
var fastOpts = milret.Options{Resolution: 6, Regions: 9}

// statsBody is GET /v1/stats as served, with the two things a test run
// cannot fix replaced by placeholders: the process-wide training counters
// (whatever trained earlier in this test binary is in them) and loopback
// port numbers (partition addresses and the transport errors naming them).
func statsBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d: %s", rec.Code, rec.Body)
	}
	body, ok := strings.CutSuffix(rec.Body.String(), "\n")
	if !ok {
		t.Fatalf("body does not end in a newline: %q", body)
	}
	body = trainNumbers.ReplaceAllString(body, `"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P}`)
	return loopbackPort.ReplaceAllString(body, "127.0.0.1:PORT")
}

var (
	trainNumbers = regexp.MustCompile(`"train":\{"evals":\d+,"starts":\d+,"starts_capped":\d+,"starts_pruned":\d+\}`)
	loopbackPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)
	screenCounts = regexp.MustCompile(`"screened":(\d+),"admitted":(\d+),"rejected":(\d+),"rows":(\d+),"offers":(\d+)`)
)

// maskScreen replaces the prune block's screen and work counts in body with
// placeholders, after checking that every screened bag was either admitted
// or rejected, and that no more bags were offered than rows were scored.
func maskScreen(t *testing.T, body string) string {
	t.Helper()
	m := screenCounts.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no screen counts in %s", body)
	}
	n := make([]int, 5)
	for i := range n {
		n[i], _ = strconv.Atoi(m[i+1])
	}
	if n[0] != n[1]+n[2] {
		t.Errorf("screened %d != admitted %d + rejected %d", n[0], n[1], n[2])
	}
	if n[4] > n[3] {
		t.Errorf("offers %d > rows %d", n[4], n[3])
	}
	return screenCounts.ReplaceAllString(body, `"screened":N,"admitted":A,"rejected":R,"rows":W,"offers":O`)
}

// addObjects fills db with the car, lamp and pants images of a small
// synthetic object corpus (12 images).
func addObjects(t *testing.T, db *milret.Database) {
	t.Helper()
	for _, it := range synth.ObjectsN(17, 4) {
		switch it.Label {
		case "car", "lamp", "pants":
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func newDB(t *testing.T, opts milret.Options) *milret.Database {
	t.Helper()
	db, err := milret.NewDatabase(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

var carQuery = []string{"object-car-00", "object-car-01"}

// trainVia trains one concept through the backend's cache path.
func trainVia(t *testing.T, b interface {
	TrainCachedContext(context.Context, []string, []string, milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error)
}, positives, negatives []string, bypass bool) *milret.Concept {
	t.Helper()
	c, _, err := b.TrainCachedContext(context.Background(), positives, negatives,
		milret.TrainOptions{Mode: milret.IdenticalWeights, BypassCache: bypass})
	must(t, err)
	return c
}

// zeroStats is a backend whose stats tree is the zero value — nothing
// trained, nothing scanned, not even a shard slice.
type zeroStats struct{ server.Backend }

func (zeroStats) Stats() milret.Stats { return milret.Stats{} }

// fleet reshards a 12-image store two ways and serves each half from a
// shard server on loopback; the returned stop functions close them.
func fleet(t *testing.T, partial string) (*remote.Coordinator, []func()) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.milret")
	db := newDB(t, fastOpts)
	addObjects(t, db)
	must(t, db.Save(src))
	must(t, db.Close())
	dst := filepath.Join(dir, "fleet.milret")
	must(t, milret.Reshard(src, dst, 2))

	topo := &remote.Topology{Partial: partial, RPCTimeoutMS: 2000, HealthIntervalMS: 3600_000}
	var stops []func()
	for i, name := range []string{"p0", "p1"} {
		sdb, err := milret.LoadDatabase(store.ShardPath(dst, i), milret.Options{VerifyOnLoad: true})
		must(t, err)
		t.Cleanup(func() { sdb.Close() })
		mux := http.NewServeMux()
		mux.Handle(remote.RPCPath, remote.NewShardServer(sdb))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		stops = append(stops, srv.Close)
		topo.Partitions = append(topo.Partitions, remote.PartitionSpec{Name: name, Addr: srv.URL})
	}
	coord, err := remote.NewCoordinator(topo, remote.CoordinatorOptions{ConceptCacheMB: 8})
	must(t, err)
	t.Cleanup(func() { coord.Close() })
	return coord, stops
}

// TestStatsGolden pins GET /v1/stats byte for byte — key names, key order,
// which keys are omitted when zero, "shards":[] rather than null — for a
// local database and for a coordinator, in every state that makes a block
// appear or a counter move. The strings were captured from the build that
// still copied the tree through server.StatsResponse; a change to how the
// tree is declared or marshalled must leave them alone.
func TestStatsGolden(t *testing.T) {
	// The train block is process-wide and appears once anything in the
	// process has trained; train here so every real backend below shows it
	// whatever ran earlier in this binary. Its absence is the stub's state.
	warm := newDB(t, fastOpts)
	addObjects(t, warm)
	trainVia(t, warm, carQuery, nil, false)

	states := []struct {
		name  string
		build func(t *testing.T) http.Handler
		want  string
	}{
		{"a backend that reports a zero tree", func(t *testing.T) http.Handler {
			return server.NewBackend(zeroStats{})
		}, `{"images":0,"instances":0,"dim":0,"index_bytes":0,"shards":[]}`},

		{"empty", func(t *testing.T) http.Handler {
			return server.New(newDB(t, fastOpts))
		}, `{"images":0,"instances":0,"dim":0,"index_bytes":0,"shards":[{"images":0,"instances":0,"index_bytes":0}],"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P}}`},

		{"fresh single shard", func(t *testing.T) http.Handler {
			db := newDB(t, fastOpts)
			addObjects(t, db)
			return server.New(db)
		}, `{"images":12,"instances":216,"dim":36,"index_bytes":62208,"shards":[{"images":12,"instances":216,"index_bytes":62208}],"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P}}`},

		// One acknowledged delete and relabel (tombstone + WAL depth), then
		// a delete and a relabel the journal still holds in memory.
		{"4 shards, tombstones, pending and WAL mutations", func(t *testing.T) http.Handler {
			opts := fastOpts
			opts.Shards = 4
			db := newDB(t, opts)
			addObjects(t, db)
			must(t, db.Save(filepath.Join(t.TempDir(), "db.milret")))
			must(t, db.DeleteImage("object-car-00"))
			must(t, db.UpdateImage("object-lamp-00", "lantern", nil))
			must(t, db.Flush())
			must(t, db.DeleteImage("object-pants-01"))
			must(t, db.UpdateImage("object-lamp-02", "lantern", nil))
			return server.New(db)
		}, `{"images":10,"instances":180,"dim":36,"index_bytes":62208,"dead_images":2,"dead_instances":36,"pending_mutations":2,"wal_mutations":2,"shards":[{"images":2,"instances":36,"index_bytes":15552,"dead_images":1,"dead_instances":18,"pending_mutations":1,"wal_mutations":1},{"images":3,"instances":54,"index_bytes":15552},{"images":3,"instances":54,"index_bytes":15552,"wal_mutations":1},{"images":2,"instances":36,"index_bytes":15552,"dead_images":1,"dead_instances":18,"pending_mutations":1}],"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P}}`},

		// A warm-loaded entry, then a hit on it, a miss and a bypass.
		{"cache: hit, miss, bypass, warm-loaded", func(t *testing.T) http.Handler {
			path := filepath.Join(t.TempDir(), "db.milret")
			opts := fastOpts
			opts.ConceptCacheMB = 8
			opts.ConceptCacheFile = path + ".ccache"
			db := newDB(t, opts)
			addObjects(t, db)
			must(t, db.Save(path))
			trainVia(t, db, carQuery, nil, false)
			must(t, db.Flush())
			must(t, db.Close())

			db, err := milret.LoadDatabase(path, opts)
			must(t, err)
			t.Cleanup(func() { db.Close() })
			trainVia(t, db, carQuery, nil, false)
			trainVia(t, db, carQuery, []string{"object-lamp-00"}, false)
			trainVia(t, db, carQuery, nil, true)
			return server.New(db)
		}, `{"images":12,"instances":216,"dim":36,"index_bytes":62208,"shards":[{"images":12,"instances":216,"index_bytes":62208}],"cache":{"capacity_bytes":8388608,"bytes":1536,"entries":2,"hits":1,"misses":1,"coalesced":0,"bypassed":1,"warm_loaded":1},"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P}}`},

		{"one training, one top-k scan", func(t *testing.T) http.Handler {
			db := newDB(t, fastOpts)
			addObjects(t, db)
			db.Retrieve(trainVia(t, db, carQuery, nil, false), 3)
			return server.New(db)
		}, `{"images":12,"instances":216,"dim":36,"index_bytes":62208,"shards":[{"images":12,"instances":216,"index_bytes":62208}],"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"prune":{"scans":1,"unarmed":0,"screened":4,"admitted":2,"rejected":2,"rows":180,"offers":4,"seeded":0,"rescans":0}}`},

		// The repeat starts from the first answer's k-th best distance.
		{"one training, the same top-k scan twice", func(t *testing.T) http.Handler {
			db := newDB(t, fastOpts)
			addObjects(t, db)
			c := trainVia(t, db, carQuery, nil, false)
			db.Retrieve(c, 3)
			db.Retrieve(c, 3)
			return server.New(db)
		}, `{"images":12,"instances":216,"dim":36,"index_bytes":62208,"shards":[{"images":12,"instances":216,"index_bytes":62208}],"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"prune":{"scans":2,"unarmed":0,"screened":16,"admitted":12,"rejected":4,"rows":360,"offers":8,"seeded":1,"rescans":0}}`},

		// The screen and work counts are masked: they depend on whether one
		// partition's reply tightens the coordinator's cutoff before the
		// other partition's request is built.
		{"coordinator, all partitions up, one query", func(t *testing.T) http.Handler {
			coord, _ := fleet(t, "degrade")
			_, err := coord.Retrieve(context.Background(), trainVia(t, coord, carQuery, nil, false), 3, nil, 0)
			must(t, err)
			return server.NewBackend(coord)
		}, `{"images":12,"instances":216,"dim":36,"index_bytes":62208,"shards":[{"images":6,"instances":108,"index_bytes":31104},{"images":6,"instances":108,"index_bytes":31104}],"cache":{"capacity_bytes":8388608,"bytes":768,"entries":1,"hits":0,"misses":1,"coalesced":0},"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"prune":{"scans":2,"unarmed":0,"screened":N,"admitted":A,"rejected":R,"rows":W,"offers":O,"seeded":0,"rescans":0},"partitions":[{"name":"p0","addr":"http://127.0.0.1:PORT","healthy":true,"images":6},{"name":"p1","addr":"http://127.0.0.1:PORT","healthy":true,"images":6}],"partial_policy":"degrade"}`},

		// Deleting the first answer's third best pushes the repeat's k-th
		// best past the remembered bound: the coordinator fans it out
		// again, unseeded. Screen and work counts are masked as below.
		{"coordinator, one query, a top-k member deleted, the query again", func(t *testing.T) http.Handler {
			coord, _ := fleet(t, "degrade")
			c := trainVia(t, coord, carQuery, nil, false)
			res, err := coord.Retrieve(context.Background(), c, 3, nil, 0)
			must(t, err)
			must(t, coord.DeleteImage(res[2].ID))
			_, err = coord.Retrieve(context.Background(), c, 3, nil, 0)
			must(t, err)
			return server.NewBackend(coord)
		}, `{"images":11,"instances":198,"dim":36,"index_bytes":62208,"dead_images":1,"dead_instances":18,"wal_mutations":1,"shards":[{"images":6,"instances":108,"index_bytes":31104},{"images":5,"instances":90,"index_bytes":31104,"dead_images":1,"dead_instances":18,"wal_mutations":1}],"cache":{"capacity_bytes":8388608,"bytes":768,"entries":1,"hits":0,"misses":1,"coalesced":0},"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"prune":{"scans":6,"unarmed":0,"screened":N,"admitted":A,"rejected":R,"rows":W,"offers":O,"seeded":1,"rescans":1},"partitions":[{"name":"p0","addr":"http://127.0.0.1:PORT","healthy":true,"images":6},{"name":"p1","addr":"http://127.0.0.1:PORT","healthy":true,"images":5}],"partial_policy":"degrade"}`},

		{"coordinator, degrade, one partition down", func(t *testing.T) http.Handler {
			coord, stops := fleet(t, "degrade")
			c := trainVia(t, coord, carQuery, nil, false)
			stops[1]()
			_, err := coord.Retrieve(context.Background(), c, 3, nil, 0)
			must(t, err)
			return server.NewBackend(coord)
		}, `{"images":6,"instances":108,"dim":36,"index_bytes":31104,"shards":[{"images":6,"instances":108,"index_bytes":31104}],"cache":{"capacity_bytes":8388608,"bytes":768,"entries":1,"hits":0,"misses":1,"coalesced":0},"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"prune":{"scans":1,"unarmed":0,"screened":0,"admitted":0,"rejected":0,"rows":108,"offers":4,"seeded":0,"rescans":0},"partitions":[{"name":"p0","addr":"http://127.0.0.1:PORT","healthy":true,"images":6},{"name":"p1","addr":"http://127.0.0.1:PORT","healthy":false,"last_error":"remote: partition http://127.0.0.1:PORT: Post \"http://127.0.0.1:PORT/rpc\": dial tcp 127.0.0.1:PORT: connect: connection refused: milret: partition unavailable","images":6}],"partial_policy":"degrade","degraded_queries":1}`},

		{"coordinator, degrade, all partitions down", func(t *testing.T) http.Handler {
			coord, stops := fleet(t, "degrade")
			for _, stop := range stops {
				stop()
			}
			return server.NewBackend(coord)
		}, `{"images":0,"instances":0,"dim":0,"index_bytes":0,"shards":[],"cache":{"capacity_bytes":8388608,"bytes":0,"entries":0,"hits":0,"misses":0,"coalesced":0},"train":{"evals":E,"starts":S,"starts_capped":C,"starts_pruned":P},"partitions":[{"name":"p0","addr":"http://127.0.0.1:PORT","healthy":false,"last_error":"remote: partition http://127.0.0.1:PORT: Post \"http://127.0.0.1:PORT/rpc\": dial tcp 127.0.0.1:PORT: connect: connection refused: milret: partition unavailable","images":6},{"name":"p1","addr":"http://127.0.0.1:PORT","healthy":false,"last_error":"remote: partition http://127.0.0.1:PORT: Post \"http://127.0.0.1:PORT/rpc\": dial tcp 127.0.0.1:PORT: connect: connection refused: milret: partition unavailable","images":6}],"partial_policy":"degrade"}`},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			got := statsBody(t, st.build(t))
			if strings.Contains(st.want, `"screened":N,`) {
				got = maskScreen(t, got)
			}
			if got != st.want {
				t.Errorf("GET /v1/stats\n got %s\nwant %s", got, st.want)
			}
		})
	}
}
