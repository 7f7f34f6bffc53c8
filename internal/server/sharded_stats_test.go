package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"milret"
	"milret/internal/synth"
)

// shardedServer builds a server over a store-bound sharded database with
// mutation traffic in several shards.
func shardedServer(t *testing.T, shards int) (*Server, *milret.Database) {
	t.Helper()
	db, err := milret.NewDatabase(milret.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(17, 4) {
		switch it.Label {
		case "car", "lamp", "pants":
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Save(filepath.Join(t.TempDir(), "db.milret")); err != nil {
		t.Fatal(err)
	}
	return New(db), db
}

// The satellite regression: /v1/stats reports one row per shard, and every
// per-shard column sums exactly to the pre-shard totals — live and dead
// counts, index bytes, and the journal depths — after deletes, label
// updates and acknowledged flushes.
func TestStatsPerShardSumToTotals(t *testing.T) {
	s, db := shardedServer(t, 4)
	// Mutate through the API so journals fill: one delete, two relabels.
	if rec, body := doJSON(t, s, http.MethodDelete, "/v1/images/object-car-00", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", rec.Code, body)
	}
	for _, id := range []string{"object-lamp-00", "object-pants-01"} {
		if rec, body := doJSON(t, s, http.MethodPut, "/v1/images/"+id, UpdateImageRequest{Label: "renamed"}); rec.Code != http.StatusOK {
			t.Fatalf("put status %d: %s", rec.Code, body)
		}
	}

	rec, body := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st milret.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != db.ShardCount() {
		t.Fatalf("stats carries %d shard rows, database has %d shards", len(st.Shards), db.ShardCount())
	}
	var sum milret.ShardStats
	for _, row := range st.Shards {
		sum.Images += row.Images
		sum.Instances += row.Instances
		sum.IndexBytes += row.IndexBytes
		sum.DeadImages += row.DeadImages
		sum.DeadInstances += row.DeadInstances
		sum.PendingMutations += row.PendingMutations
		sum.WALMutations += row.WALMutations
	}
	if sum.Images != st.Images || sum.Instances != st.Instances || sum.IndexBytes != st.IndexBytes ||
		sum.DeadImages != st.DeadImages || sum.DeadInstances != st.DeadInstances ||
		sum.PendingMutations != st.PendingMutations || sum.WALMutations != st.WALMutations {
		t.Fatalf("per-shard rows do not sum to totals:\nsum    %+v\ntotals %+v", sum, st)
	}
	// The mutations above were acknowledged (flushed): they must appear in
	// the journal columns, spread over the mutated images' shards.
	if st.WALMutations != 3 || st.PendingMutations != 0 {
		t.Fatalf("journal totals after acks: %+v", st)
	}
	if st.DeadImages != 1 {
		t.Fatalf("dead totals after delete: %+v", st)
	}
	if st.Images != db.Len() {
		t.Fatalf("stats images %d, Len %d", st.Images, db.Len())
	}
}

// A single-shard database still reports exactly one shard row whose values
// equal the totals — the degenerate case of the same invariant.
func TestStatsSingleShardRow(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st milret.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 {
		t.Fatalf("single-shard stats carries %d rows", len(st.Shards))
	}
	row := st.Shards[0]
	if row.Images != st.Images || row.Instances != st.Instances || row.IndexBytes != st.IndexBytes {
		t.Fatalf("single shard row %+v != totals %+v", row, st)
	}
}
