package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"milret/internal/mat"
	"milret/internal/server"
	"milret/internal/store"
)

// ranked is one result row as the checks compare it: the ID and the
// distance's exact bits. Labels are mutable metadata and never compared.
type ranked struct {
	ID   string
	Dist float64
}

func rankedOf(rs []server.QueryResult) []ranked {
	out := make([]ranked, len(rs))
	for i, r := range rs {
		out[i] = ranked{r.ID, r.Distance}
	}
	return out
}

// sameRanking requires got to equal want bit for bit, position by
// position.
func sameRanking(got, want []ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("ranking has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("rank %d: id %q, want %q", i, got[i].ID, want[i].ID)
		}
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d (%s): distance %x, want %x", i, want[i].ID,
				math.Float64bits(got[i].Dist), math.Float64bits(want[i].Dist))
		}
	}
	return nil
}

// oracleTopK recomputes a top-k from the generator's own vectors: each
// bag's distance is the minimum over its instances of the weighted
// squared distance to the point, and bags order by distance, then ID.
func oracleTopK(recs []store.Record, point, weights []float64, k int) []ranked {
	all := make([]ranked, 0, len(recs))
	for _, rec := range recs {
		best := math.Inf(1)
		for _, inst := range rec.Bag.Instances {
			if d := mat.WeightedSqDist(inst, point, weights); d < best {
				best = d
			}
		}
		all = append(all, ranked{rec.ID, best})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// precisionAt is the share of the first n results whose ground-truth
// category is target.
func precisionAt(results []ranked, n int, cat map[string]int, target int) float64 {
	if len(results) < n {
		n = len(results)
	}
	if n == 0 {
		return 0
	}
	hits := 0
	for _, r := range results[:n] {
		if c, ok := cat[r.ID]; ok && c == target {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// decodeStrict decodes a reply body, rejecting trailing garbage.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("malformed reply: trailing data")
	}
	return nil
}

// queryExpect is what a /v1/query reply must show.
type queryExpect struct {
	cache string   // "hit" or "miss"
	prune string   // "" for the exact scan, "filtered" for recall 1.0
	want  []ranked // nil: ranking not pinned (cold queries)
}

// checkQueryReply validates one /v1/query reply: 200, well-formed, k
// rows, the expected cache and prune dispositions, a finite objective,
// and — when pinned — the exact expected ranking.
func checkQueryReply(status int, body []byte, exp queryExpect) (server.QueryResponse, error) {
	var resp server.QueryResponse
	if status != http.StatusOK {
		return resp, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := decodeStrict(body, &resp); err != nil {
		return resp, err
	}
	if len(resp.Results) != topK {
		return resp, fmt.Errorf("%d results, want %d", len(resp.Results), topK)
	}
	if resp.Cache != exp.cache {
		return resp, fmt.Errorf("cache disposition %q, want %q", resp.Cache, exp.cache)
	}
	if resp.Prune != exp.prune {
		return resp, fmt.Errorf("prune disposition %q, want %q", resp.Prune, exp.prune)
	}
	if math.IsNaN(resp.NegLogDD) || math.IsInf(resp.NegLogDD, 0) {
		return resp, fmt.Errorf("neg_log_dd %v is not finite", resp.NegLogDD)
	}
	if exp.want != nil {
		if err := sameRanking(rankedOf(resp.Results), exp.want); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

// checkBatchReply validates one /v1/retrieve/batch reply against the
// single-query answers of the same geometries.
func checkBatchReply(status int, body []byte, want [][]ranked) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp server.BatchRetrieveResponse
	if err := decodeStrict(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d rankings, want %d", len(resp.Results), len(want))
	}
	for i := range want {
		if err := sameRanking(rankedOf(resp.Results[i]), want[i]); err != nil {
			return fmt.Errorf("batch entry %d: %w", i, err)
		}
	}
	return nil
}

// checkMutationReply validates a PUT /v1/images/{id} acknowledgement.
func checkMutationReply(status int, body []byte, id, label string) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var info server.ImageInfo
	if err := decodeStrict(body, &info); err != nil {
		return err
	}
	if info.ID != id || info.Label != label {
		return fmt.Errorf("acknowledged {%q, %q}, want {%q, %q}", info.ID, info.Label, id, label)
	}
	return nil
}
