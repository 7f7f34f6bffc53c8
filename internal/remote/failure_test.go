package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"milret"
	"milret/internal/retrieval"
	"milret/internal/store"
)

// twoShardFixture reshards a small store two ways and returns the shard
// databases plus the reference and the insertion-order IDs.
func twoShardFixture(t *testing.T) (ref, s0, s1 *milret.Database, ids []string) {
	t.Helper()
	dir := t.TempDir()
	src, ids := buildStore(t, dir)
	dst := filepath.Join(dir, "sharded.milret")
	if err := milret.Reshard(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	return openVerified(t, src), openVerified(t, store.ShardPath(dst, 0)), openVerified(t, store.ShardPath(dst, 1)), ids
}

// TestPartialPolicyOnTimeout hangs one partition past the RPC deadline
// mid-scan: "fail" must refuse with ErrUnavailable, "degrade" must
// answer exactly the reachable partitions' merged ranking and count the
// degradation.
func TestPartialPolicyOnTimeout(t *testing.T) {
	ref, s0, _, ids := twoShardFixture(t)

	// Partition 0 answers normally; partition 1 blocks until the client
	// hangs up.
	mux := http.NewServeMux()
	mux.Handle(RPCPath, NewShardServer(s0))
	healthy := httptest.NewServer(mux)
	defer healthy.Close()
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hung.Close()
	defer close(release) // un-hang handlers so the graceful Close above can finish

	concept, err := ref.Train(ids[:2], ids[2:3], milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}

	mkTopo := func(partial string) *Topology {
		return &Topology{
			Partitions: []PartitionSpec{
				{Name: "up", Addr: healthy.URL},
				{Name: "down", Addr: hung.URL},
			},
			Partial:      partial,
			RPCTimeoutMS: 200,
			Retries:      0,
		}
	}

	t.Run("fail", func(t *testing.T) {
		coord, err := NewCoordinator(mkTopo(PartialFail), CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		_, err = coord.Retrieve(context.Background(), concept, 5, nil, 0)
		if !errors.Is(err, milret.ErrUnavailable) {
			t.Fatalf("Retrieve with a hung partition: %v, want ErrUnavailable", err)
		}
		_, err = coord.RetrieveBatch(context.Background(), []*milret.Concept{concept}, 5, nil, 0)
		if !errors.Is(err, milret.ErrUnavailable) {
			t.Fatalf("RetrieveBatch with a hung partition: %v, want ErrUnavailable", err)
		}
		_, err = coord.Retrieve(context.Background(), concept, ref.Len(), nil, 0)
		if !errors.Is(err, milret.ErrUnavailable) {
			t.Fatalf("full-ranking Retrieve with a hung partition: %v, want ErrUnavailable", err)
		}
		if _, err = coord.Images(); !errors.Is(err, milret.ErrUnavailable) {
			t.Fatalf("Images with a hung partition: %v, want ErrUnavailable", err)
		}
		if n := coord.degraded.Load(); n != 0 {
			t.Errorf("fail policy counted %d degraded queries", n)
		}
	})

	t.Run("degrade", func(t *testing.T) {
		coord, err := NewCoordinator(mkTopo(PartialDegrade), CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		got, err := coord.Retrieve(context.Background(), concept, ref.Len(), nil, 0)
		if err != nil {
			t.Fatalf("degrade policy refused: %v", err)
		}
		// The degraded answer must be exactly the reachable partition's
		// images, in the global ranking order.
		var want []milret.Result
		for _, r := range ref.RankAllExcluding(concept, nil) {
			if retrieval.ShardIndexFor(r.ID, 2) == 0 {
				want = append(want, r)
			}
		}
		wantIdentical(t, "degraded topk", got, want)
		if n := coord.degraded.Load(); n != 1 {
			t.Errorf("degraded counter = %d, want 1", n)
		}
		st := coord.Stats()
		if st.DegradedQueries != 1 {
			t.Errorf("stats DegradedQueries = %d", st.DegradedQueries)
		}
		var down *milret.PartitionStats
		for i := range st.Partitions {
			if st.Partitions[i].Name == "down" {
				down = &st.Partitions[i]
			}
		}
		if down == nil || down.Healthy || down.LastError == "" {
			t.Errorf("down partition row = %+v, want unhealthy with an error", down)
		}
		// The batched and the exhaustive scan degrade to the same answer.
		batch, err := coord.RetrieveBatch(context.Background(), []*milret.Concept{concept}, ref.Len(), nil, 0)
		if err != nil {
			t.Fatalf("degrade policy refused a batch: %v", err)
		}
		wantIdentical(t, "degraded batch", batch[0], want)
		all, err := coord.Retrieve(context.Background(), concept, ref.Len()+1, nil, 0)
		if err != nil {
			t.Fatalf("degrade policy refused a ranking: %v", err)
		}
		wantIdentical(t, "degraded rank", all, want)
		infos, err := coord.Images()
		if err != nil || len(infos) != len(want) {
			t.Fatalf("degraded listing: %d images, %v; want the reachable partition's %d", len(infos), err, len(want))
		}
		if n := coord.degraded.Load(); n != 4 {
			t.Errorf("degraded counter = %d after four degraded answers", n)
		}
	})
}

// TestShardVerdictIsNotAnOutage: a shard that answers "no" is up. A
// wrong-dimension batch and a mutation routed to a read-only shard must
// come back as the shard's own *RemoteError under either partial policy —
// never absorbed into an empty 200, never counted as a degraded answer —
// and must leave every partition's health row untouched.
func TestShardVerdictIsNotAnOutage(t *testing.T) {
	_, s0, s1, ids := twoShardFixture(t)
	var addrs []string
	for _, db := range []*milret.Database{s0, s1} {
		rpc := NewShardServer(db)
		rpc.ReadOnly = true
		mux := http.NewServeMux()
		mux.Handle(RPCPath, rpc)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	bad, err := milret.NewConcept([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{PartialFail, PartialDegrade} {
		t.Run(policy, func(t *testing.T) {
			coord, err := NewCoordinator(&Topology{
				Partitions: []PartitionSpec{{Name: "p0", Addr: addrs[0]}, {Name: "p1", Addr: addrs[1]}},
				Partial:    policy,
			}, CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			wantVerdict := func(what string, err error) {
				t.Helper()
				var re *RemoteError
				if !errors.As(err, &re) || re.Code != ErrCodeBadRequest || errors.Is(err, milret.ErrUnavailable) {
					t.Fatalf("%s: err = %v, want the shard's bad-request verdict", what, err)
				}
			}
			lists, err := coord.RetrieveBatch(context.Background(), []*milret.Concept{bad}, 5, nil, 0)
			wantVerdict("3-dim batch", err)
			if lists != nil {
				t.Errorf("3-dim batch answered %v next to its error", lists)
			}
			wantVerdict("delete on a read-only shard", coord.DeleteImage(ids[0]))
			wantVerdict("relabel on a read-only shard", coord.UpdateImage(ids[1], "x", nil))

			st := coord.Stats()
			if st.DegradedQueries != 0 {
				t.Errorf("degraded_queries = %d after shard verdicts", st.DegradedQueries)
			}
			for _, p := range st.Partitions {
				if !p.Healthy || p.LastError != "" {
					t.Errorf("partition %s: healthy=%v last_error=%q after shard verdicts", p.Name, p.Healthy, p.LastError)
				}
			}
			if status, err := coord.Verification(); status != milret.VerifyVerified || err != nil {
				t.Errorf("Verification = %v, %v after shard verdicts", status, err)
			}
		})
	}
}

// TestOversizedRequestFrameIsRefusedUnread: a request frame's buffer is
// allocated from its 13-byte header alone, so the shard must refuse a
// length above the request bound before allocating it (it used to accept
// anything up to the 256 MB response bound).
func TestOversizedRequestFrameIsRefusedUnread(t *testing.T) {
	_, s0, _, _ := twoShardFixture(t)
	hdr := append([]byte(Magic), opFetch)
	hdr = binary.LittleEndian.AppendUint32(hdr, maxFrameBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	NewShardServer(s0).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RPCPath, bytes.NewReader(hdr)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized request frame: HTTP %d, want 400", rec.Code)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a 13-byte header allocated %d bytes", grew)
	}
	// The bound itself is still admitted (and here fails on the missing body).
	hdr = binary.LittleEndian.AppendUint32(hdr[:len(Magic)+1], maxRequestBody)
	if _, _, err := readFrame(bytes.NewReader(hdr), maxRequestBody); err == nil || !strings.Contains(err.Error(), "torn frame body") {
		t.Fatalf("frame at the request bound: %v, want a torn-body error", err)
	}
}

// truncatingProxy forwards shard RPCs to target, tearing exactly one
// response frame in half each time torn is armed.
func truncatingProxy(t *testing.T, target string, torn *atomic.Bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := http.Post(target+RPCPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		frame, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if torn.CompareAndSwap(true, false) {
			frame = frame[:len(frame)/2]
		}
		w.Write(frame)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestTornFrameIsTransportFailure tears response frames mid-wire: the
// CRC/truncation check must surface a retryable transport failure (not
// a garbage answer), and recovery must be seamless once frames flow
// whole again.
func TestTornFrameIsTransportFailure(t *testing.T) {
	ref, s0, s1, ids := twoShardFixture(t)

	mkShard := func(db *milret.Database) *httptest.Server {
		mux := http.NewServeMux()
		mux.Handle(RPCPath, NewShardServer(db))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	direct0 := mkShard(s0)
	var torn atomic.Bool
	proxied1 := truncatingProxy(t, mkShard(s1).URL, &torn)

	topo := &Topology{
		Partitions: []PartitionSpec{
			{Name: "p0", Addr: direct0.URL},
			{Name: "p1", Addr: proxied1.URL},
		},
		RPCTimeoutMS: 2000,
		Retries:      0,
	}
	coord, err := NewCoordinator(topo, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	concept, err := ref.Train(ids[:2], nil, milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.RetrieveExcluding(concept, 8, nil)

	torn.Store(true)
	_, err = coord.Retrieve(context.Background(), concept, 8, nil, 0)
	if !errors.Is(err, milret.ErrUnavailable) {
		t.Fatalf("torn frame: %v, want ErrUnavailable", err)
	}

	got, err := coord.Retrieve(context.Background(), concept, 8, nil, 0)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	wantIdentical(t, "post-recovery topk", got, want)

	// With a retry budget the same tear self-heals inside one call: the
	// first attempt tears, the retry succeeds.
	retrying := NewClient(proxied1.URL, time.Second, 3, time.Millisecond)
	torn.Store(true)
	if _, err := retrying.Ping(context.Background()); err != nil {
		t.Fatalf("retrying ping through a healing proxy: %v", err)
	}
}

// TestStaleCutoffKeepsBitIdentity delays one partition so its cutoff
// lands after every other scan already merged: staleness must only
// weaken pruning, never change the answer.
func TestStaleCutoffKeepsBitIdentity(t *testing.T) {
	ref, s0, s1, ids := twoShardFixture(t)

	fast := http.NewServeMux()
	fast.Handle(RPCPath, NewShardServer(s0))
	fastSrv := httptest.NewServer(fast)
	defer fastSrv.Close()

	slow := NewShardServer(s1)
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond) // answer late, within the deadline
		slow.ServeHTTP(w, r)
	}))
	defer slowSrv.Close()

	topo := &Topology{
		Partitions: []PartitionSpec{
			{Name: "fast", Addr: fastSrv.URL},
			{Name: "slow", Addr: slowSrv.URL},
		},
		RPCTimeoutMS: 5000,
	}
	coord, err := NewCoordinator(topo, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for seed := 0; seed < 3; seed++ {
		concept, err := ref.Train(ids[seed:seed+2], ids[seed+5:seed+6], milret.TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, recall := range []float64{0, 1.0} {
			got, err := coord.Retrieve(context.Background(), concept, 6, nil, recall)
			if err != nil {
				t.Fatal(err)
			}
			wantIdentical(t, "stale-cutoff topk", got, ref.RetrieveExcluding(concept, 6, nil, milret.WithRecall(recall)))
		}
	}
}

// TestKillAndRestartUnderTraffic kills a shard server mid-stream of
// concurrent queries and restarts it on the same address: every query
// must either answer bit-identically or refuse with ErrUnavailable —
// never a wrong answer — and the coordinator must recover by itself.
func TestKillAndRestartUnderTraffic(t *testing.T) {
	ref, s0, s1, ids := twoShardFixture(t)

	mux0 := http.NewServeMux()
	mux0.Handle(RPCPath, NewShardServer(s0))
	srv0 := httptest.NewServer(mux0)
	defer srv0.Close()

	// Partition 1 listens on a fixed port we control, so it can die and
	// come back at the same address.
	mux1 := http.NewServeMux()
	mux1.Handle(RPCPath, NewShardServer(s1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1 := &http.Server{Handler: mux1}
	go srv1.Serve(ln)

	topo := &Topology{
		Partitions: []PartitionSpec{
			{Name: "p0", Addr: srv0.URL},
			{Name: "p1", Addr: "http://" + addr},
		},
		Partial:      PartialFail,
		RPCTimeoutMS: 1000,
		Retries:      0,
	}
	coord, err := NewCoordinator(topo, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	concept, err := ref.Train(ids[:2], ids[4:5], milret.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.RetrieveExcluding(concept, 7, nil)

	var (
		stop     atomic.Bool
		okCount  atomic.Int64
		errCount atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := coord.Retrieve(context.Background(), concept, 7, nil, 0)
				if err != nil {
					if !errors.Is(err, milret.ErrUnavailable) {
						t.Errorf("query failed with a non-availability error: %v", err)
						return
					}
					errCount.Add(1)
					continue
				}
				okCount.Add(1)
				wantIdentical(t, "under-churn topk", got, want)
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let some healthy traffic through
	srv1.Close()                      // kill partition 1 mid-stream
	time.Sleep(150 * time.Millisecond)

	// Restart at the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: mux1}
	go srv2.Serve(ln2)
	defer srv2.Close()
	time.Sleep(150 * time.Millisecond)

	stop.Store(true)
	wg.Wait()
	if okCount.Load() == 0 {
		t.Error("no query ever succeeded")
	}
	if errCount.Load() == 0 {
		t.Error("the outage was never observed (test too lenient to mean anything)")
	}

	// After the restart a fresh query must succeed and match exactly.
	got, err := coord.Retrieve(context.Background(), concept, 7, nil, 0)
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	wantIdentical(t, "post-restart topk", got, want)
}

// TestFetchErrorDeterministic takes two owners of a query's examples
// down. The example fetch asks every owner in one concurrent
// round and reports the first failure in partition order — not in input
// order, and not in whatever order a map happens to iterate — so the
// error names the same partition on every run, and it is ErrUnavailable
// whatever the partial-result policy.
func TestFetchErrorDeterministic(t *testing.T) {
	cl := startCluster(t, PartialDegrade)
	owned := map[int]string{} // partition → one example it owns
	for _, id := range cl.ids {
		pi := retrieval.ShardIndexFor(id, 4)
		if _, ok := owned[pi]; !ok {
			owned[pi] = id
		}
	}
	for pi := 0; pi < 4; pi++ {
		if owned[pi] == "" {
			t.Fatalf("no example hashes to partition %d", pi)
		}
	}
	// Input order runs against partition order: p3's example first.
	pos := []string{owned[3], owned[0]}
	neg := []string{owned[2], owned[1]}
	if _, _, err := cl.coord.TrainCachedContext(context.Background(), pos, neg, milret.TrainOptions{}); err != nil {
		t.Fatalf("training with every owner up: %v", err)
	}
	p2 := cl.servers[2].URL
	cl.servers[2].Close()
	cl.servers[3].Close()
	cl.servers[2], cl.servers[3] = nil, nil
	var first string
	for run := 0; run < 20; run++ {
		// A fresh example set each run would be a cache miss; the same set
		// must fail too — the fetch precedes the cache lookup.
		_, _, err := cl.coord.TrainCachedContext(context.Background(), pos, neg, milret.TrainOptions{})
		if !errors.Is(err, milret.ErrUnavailable) {
			t.Fatalf("run %d: err = %v, want ErrUnavailable", run, err)
		}
		if !strings.Contains(err.Error(), strings.TrimPrefix(p2, "http://")) {
			t.Fatalf("run %d: error %q does not name the first failed partition %s", run, err, p2)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d: error %q, run 0 said %q", run, err, first)
		}
	}
}
