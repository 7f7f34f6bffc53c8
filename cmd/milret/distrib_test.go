package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"milret"
	"milret/internal/server"
	"milret/internal/store"
	"milret/internal/synth"
)

// buildMilretBinary compiles the milret command once per test run.
func buildMilretBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "milret")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePort grabs an ephemeral port. The tiny window between Close and
// the server's bind is an accepted test-only race.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// startProc launches the milret binary with args and registers a
// kill-on-cleanup. It returns the running command for explicit
// kill/restart choreography.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitHealthy polls /v1/healthz until the server answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}

func postQuery(t *testing.T, base string, req server.QueryRequest) (server.QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return qr, resp.StatusCode
}

// TestDistributedEndToEnd runs the full distributed deployment as real
// OS processes: four shard servers plus a coordinator fronting them,
// checked bit-identical against an in-process scan over the un-sharded
// source, then kept under mixed loadtest traffic while one shard process
// is killed and restarted.
func TestDistributedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := buildMilretBinary(t)
	dir := t.TempDir()

	// Source store and its 4-shard layout.
	db, err := milret.NewDatabase(milret.Options{Resolution: 6, Regions: 9})
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
	dst := filepath.Join(dir, "sharded.milret")
	if err := milret.Reshard(src, dst, 4); err != nil {
		t.Fatal(err)
	}
	ref, err := milret.LoadDatabase(src, milret.Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// One shard-serve process per shard.
	shardAddrs := make([]string, 4)
	shardCmds := make([]*exec.Cmd, 4)
	shardArgs := make([][]string, 4)
	partitions := make([]map[string]string, 4)
	for i := range shardAddrs {
		port := freePort(t)
		shardAddrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
		shardArgs[i] = []string{
			"shard-serve",
			"-db", store.ShardPath(dst, i),
			"-addr", shardAddrs[i],
		}
		shardCmds[i] = startProc(t, bin, shardArgs[i]...)
		partitions[i] = map[string]string{"name": fmt.Sprintf("p%d", i), "addr": "http://" + shardAddrs[i]}
	}
	for _, addr := range shardAddrs {
		waitHealthy(t, "http://"+addr)
	}

	// Coordinator process over the four partitions.
	topo := map[string]any{
		"partitions":         partitions,
		"partial":            "degrade",
		"rpc_timeout_ms":     1000,
		"health_interval_ms": 200,
	}
	topoBytes, _ := json.Marshal(topo)
	topoPath := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topoPath, topoBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	coordAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	startProc(t, bin, "serve", "-topology", topoPath, "-addr", coordAddr)
	coordBase := "http://" + coordAddr
	waitHealthy(t, coordBase)

	// Bit-identity through the full stack: the coordinator's HTTP answer
	// must carry the in-process scan's exact distances in the exact
	// order. JSON floats round-trip bit-exactly (shortest-representation
	// encoding), so string-level equality of distances is meaningful.
	checkQuery := func(pos, neg []string, k int, ignoreLabels bool) {
		t.Helper()
		got, code := postQuery(t, coordBase, server.QueryRequest{
			Positives: pos, Negatives: neg, K: k, ExcludeExamples: true,
		})
		if code != http.StatusOK {
			t.Fatalf("/v1/query: HTTP %d", code)
		}
		// /v1/query defaults to the constrained weight mode; the
		// reference must train identically.
		concept, err := ref.Train(pos, neg, milret.TrainOptions{Mode: milret.ConstrainedWeights})
		if err != nil {
			t.Fatal(err)
		}
		exclude := append(append([]string{}, pos...), neg...)
		want := ref.RetrieveExcluding(concept, k, exclude)
		if len(got.Results) != len(want) {
			t.Fatalf("distributed answered %d results, in-process %d", len(got.Results), len(want))
		}
		for i := range want {
			g, w := got.Results[i], want[i]
			if g.ID != w.ID || g.Distance != w.Distance || (!ignoreLabels && g.Label != w.Label) {
				t.Fatalf("rank %d: distributed %+v, in-process %+v", i, g, w)
			}
		}
	}
	checkQuery(ids[:2], ids[4:5], 10, false)
	checkQuery(ids[7:9], nil, ref.Len(), false) // exhaustive ranking depth

	// Kill one shard process and restart it under mixed loadtest
	// traffic (queries, batches, label mutations). The degrade policy
	// keeps the coordinator answering throughout; the loadtest reports
	// its own error counts rather than failing.
	ltDone := make(chan error, 1)
	go func() {
		ltDone <- cmdLoadtest([]string{
			"-addr", coordAddr,
			"-duration", "3s",
			"-concurrency", "3",
			"-queries", "4",
		})
	}()
	time.Sleep(500 * time.Millisecond)
	shardCmds[3].Process.Kill()
	shardCmds[3].Wait()
	time.Sleep(500 * time.Millisecond)
	startProc(t, bin, shardArgs[3]...)
	waitHealthy(t, "http://"+shardAddrs[3])
	if err := <-ltDone; err != nil {
		t.Fatalf("loadtest against the coordinator: %v", err)
	}

	// After the restart the full stack must answer bit-identically
	// again (labels may have been mutated by the loadtest; distances
	// and order cannot have).
	checkQuery(ids[1:3], ids[6:7], 10, true)

	// The stats surface reports the partition block.
	resp, err := http.Get(coordBase + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st milret.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Partitions) != 4 {
		t.Fatalf("stats partitions = %d rows", len(st.Partitions))
	}
	if st.PartialPolicy != "degrade" {
		t.Errorf("partial policy = %q", st.PartialPolicy)
	}
}
