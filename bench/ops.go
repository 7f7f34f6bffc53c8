package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"milret/internal/server"
)

// Workload names, as BENCHMARK.json and every later issue spell them.
const (
	wlWarmScan     = "warm_scan"
	wlColdFeedback = "cold_feedback"
	wlMixedRW      = "mixed_rw"
	wlFanout       = "distributed_fanout"
)

var workloadNames = []string{wlWarmScan, wlColdFeedback, wlMixedRW, wlFanout}

// opClass is a traffic class; latency is reported per class.
type opClass string

const (
	opQuery  opClass = "query"  // POST /v1/query, recall omitted → exact scan
	opPruned opClass = "pruned" // POST /v1/query with "recall": 1.0
	opBatch  opClass = "batch"  // POST /v1/retrieve/batch of concept geometries
	opMutate opClass = "mutate" // PUT /v1/images/{id}, label only
	opIngest opClass = "ingest" // PUT /v1/images/{id} with png_base64
)

var opClasses = []opClass{opQuery, opPruned, opBatch, opMutate, opIngest}

// traffic is a workload's client count and fixed op cycle. Op i of a run
// (a global index shared by all clients) has class cycle[i % len(cycle)].
type traffic struct {
	clients   int
	cycle     []opClass
	batchSize int
}

func repeatOps(c opClass, n int) []opClass {
	out := make([]opClass, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// trafficFor returns the workload's traffic mix. Mutations are spread
// through mixed_rw's cycle rather than bunched, so a query is never more
// than three ops from a write.
func trafficFor(name string) traffic {
	switch name {
	case wlWarmScan:
		cycle := append(repeatOps(opQuery, 4), repeatOps(opPruned, 4)...)
		return traffic{clients: 1, cycle: append(cycle, opBatch), batchSize: 8}
	case wlMixedRW:
		return traffic{clients: 2, cycle: []opClass{
			opQuery, opQuery, opQuery, opMutate,
			opQuery, opQuery, opQuery, opMutate,
			opQuery, opQuery, opQuery, opMutate,
			opQuery, opQuery, opIngest, opMutate,
		}}
	case wlFanout:
		return traffic{clients: 2, cycle: append(repeatOps(opQuery, 6), opBatch, opMutate), batchSize: 4}
	default: // cold_feedback drives sessions, not a cycle
		return traffic{clients: 1, cycle: []opClass{opQuery}}
	}
}

// op is one request, fully determined by (seed, global op index).
type op struct {
	class  opClass
	method string
	path   string
	body   []byte
	// fps are the fingerprints whose answers the reply must reproduce:
	// one for query/pruned, batchSize for batch.
	fps []int
	// id and label are what a mutate/ingest reply must echo.
	id, label string
}

// schedule turns a global op index into a request. It holds only
// pre-rendered pieces, so at is a pure function: the same seed yields
// byte-identical bodies in the same order.
type schedule struct {
	tr       traffic
	perCycle map[opClass]int // ops of each class in one cycle
	rankIn   []int           // rankIn[j]: how many earlier ops of cycle[j]'s class the cycle holds
	queries  [][]byte        // per fingerprint
	pruned   [][]byte
	batches  [][]byte // per batch start offset
	batchFPs [][]int
	ingests  []op // per pool member
	w        *world
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal %T: %v", v, err)) // only harness-built values reach here
	}
	return b
}

// queryOpts are the per-request knobs of a /v1/query body.
type queryOpts struct {
	beta            float64
	excludeExamples bool
	pruned          bool
	returnConcept   bool
}

// vectorQuery is how the cache-hit workloads ask: β=0.5 and examples
// kept in the ranking, so a batch entry (whose exclude list is shared by
// the whole batch) answers exactly what the single query answers.
var vectorQuery = queryOpts{beta: vectorBeta}

// feedbackQuery is cold_feedback's: server defaults, examples excluded
// the way the paper's §4.1 protocol mines false positives.
var feedbackQuery = queryOpts{excludeExamples: true}

// queryBody renders a /v1/query body for an example set.
func queryBody(es exampleSet, o queryOpts) []byte {
	req := server.QueryRequest{
		Positives:       es.Positives,
		Negatives:       es.Negatives,
		K:               topK,
		Beta:            o.beta,
		ExcludeExamples: o.excludeExamples,
		ReturnConcept:   o.returnConcept,
	}
	if o.pruned {
		one := 1.0
		req.Recall = &one
	}
	return mustJSON(req)
}

// newSchedule pre-renders the hit workloads' query and ingest bodies.
// Batch bodies carry trained geometries and are added by setBatches once
// priming has produced them.
func newSchedule(w *world, tr traffic) *schedule {
	s := &schedule{tr: tr, w: w, perCycle: map[opClass]int{}, rankIn: make([]int, len(tr.cycle))}
	for j, c := range tr.cycle {
		s.rankIn[j] = s.perCycle[c]
		s.perCycle[c]++
	}
	for _, es := range w.sets {
		q := vectorQuery
		s.queries = append(s.queries, queryBody(es, q))
		q.pruned = true
		s.pruned = append(s.pruned, queryBody(es, q))
	}
	for _, it := range w.pool {
		s.ingests = append(s.ingests, op{class: opIngest, method: http.MethodPut, path: "/v1/images/" + it.ID,
			body: mustJSON(server.UpdateImageRequest{Label: it.Label, PNGBase64: it.B64}), id: it.ID, label: it.Label})
	}
	return s
}

// setBatches renders one batch body per rotation offset from the primed
// fingerprints' geometries.
func (s *schedule) setBatches(concepts []server.ConceptGeometry) {
	if s.tr.batchSize == 0 {
		return
	}
	for start := range concepts {
		fps := make([]int, s.tr.batchSize)
		geoms := make([]server.ConceptGeometry, s.tr.batchSize)
		for j := range fps {
			fps[j] = (start + j) % len(concepts)
			geoms[j] = concepts[fps[j]]
		}
		s.batches = append(s.batches, mustJSON(server.BatchRetrieveRequest{Concepts: geoms, K: topK}))
		s.batchFPs = append(s.batchFPs, fps)
	}
}

// queryOp is the exact (or, with pruned, the recall-1.0) query of one
// fingerprint; batchOp the batch starting at one rotation offset.
func (s *schedule) queryOp(fp int, pruned bool) op {
	o := op{class: opQuery, method: http.MethodPost, path: "/v1/query", body: s.queries[fp], fps: []int{fp}}
	if pruned {
		o.class, o.body = opPruned, s.pruned[fp]
	}
	return o
}

func (s *schedule) batchOp(b int) op {
	return op{class: opBatch, method: http.MethodPost, path: "/v1/retrieve/batch", body: s.batches[b], fps: s.batchFPs[b]}
}

// at returns op i. The n-th op of a class (counted across the whole run)
// picks fingerprint n mod 16, mutation target n mod len(mutateIDs), pool
// member n mod len(pool) — each class walks its own rotation.
func (s *schedule) at(i int64) op {
	j := int(i % int64(len(s.tr.cycle)))
	class := s.tr.cycle[j]
	nth := int(i/int64(len(s.tr.cycle)))*s.perCycle[class] + s.rankIn[j]
	switch class {
	case opQuery, opPruned:
		return s.queryOp(nth%len(s.queries), class == opPruned)
	case opBatch:
		return s.batchOp(nth % len(s.batches))
	case opMutate:
		id := s.w.mutateIDs[nth%len(s.w.mutateIDs)]
		label := fmt.Sprintf("relabel-%d", nth)
		return op{class: class, method: http.MethodPut, path: "/v1/images/" + id,
			body: mustJSON(server.UpdateImageRequest{Label: label}), id: id, label: label}
	default: // opIngest
		return s.ingests[nth%len(s.ingests)]
	}
}

// feedbackPlan draws cold_feedback's sessions: which category, which
// positives, which first-round negatives, and spare negatives for a
// second round whose first round had no false positives. Every example
// set it hands out is new, so every query misses the concept cache.
type feedbackPlan struct {
	r          *rand.Rand
	byCat      [][]string
	nPos, nNeg int
	used       map[string]bool
	next       int
}

func newFeedbackPlan(seed int64, byCat [][]string, nPos, nNeg int) *feedbackPlan {
	return &feedbackPlan{r: rand.New(rand.NewSource(seed ^ 0xfeedbac)), byCat: byCat, nPos: nPos, nNeg: nNeg, used: map[string]bool{}}
}

func setKey(pos, neg []string) string {
	p := append([]string(nil), pos...)
	n := append([]string(nil), neg...)
	sort.Strings(p)
	sort.Strings(n)
	return strings.Join(p, ",") + "|" + strings.Join(n, ",")
}

// claim marks an example set used and reports whether it was new.
func (p *feedbackPlan) claim(pos, neg []string) bool {
	k := setKey(pos, neg)
	if p.used[k] {
		return false
	}
	p.used[k] = true
	return true
}

// negatives draws n distinct images outside category cat and outside
// avoid.
func (p *feedbackPlan) negatives(cat, n int, avoid map[string]bool) []string {
	taken := map[string]bool{}
	for id := range avoid {
		taken[id] = true
	}
	var out []string
	for len(out) < n {
		other := p.r.Intn(len(p.byCat))
		if other == cat {
			continue
		}
		out = append(out, pickDistinct(p.r, p.byCat[other], 1, taken, nil)...)
	}
	return out
}

// session starts the next session: its first-round example set.
func (p *feedbackPlan) session() exampleSet {
	for {
		cat := p.next % len(p.byCat)
		es := exampleSet{Cat: cat, Positives: pickDistinct(p.r, p.byCat[cat], p.nPos, map[string]bool{}, nil)}
		es.Negatives = p.negatives(cat, p.nNeg, nil)
		if p.claim(es.Positives, es.Negatives) {
			p.next++
			return es
		}
	}
}

// refine builds a session's second round: the same positives with the
// first round's top false positives as negatives — the paper's §4
// feedback step — topped up with fresh random negatives when the first
// round ranked fewer than two.
func (p *feedbackPlan) refine(first exampleSet, falsePositives []string) exampleSet {
	neg := append([]string(nil), falsePositives...)
	if len(neg) > p.nNeg {
		neg = neg[:p.nNeg]
	}
	for {
		avoid := map[string]bool{}
		for _, id := range append(first.ids(), neg...) {
			avoid[id] = true
		}
		cand := append(append([]string(nil), neg...), p.negatives(first.Cat, p.nNeg-len(neg), avoid)...)
		if p.claim(first.Positives, cand) {
			return exampleSet{Cat: first.Cat, Positives: first.Positives, Negatives: cand}
		}
		if len(neg) > 0 {
			neg = neg[:len(neg)-1] // seen before: swap the weakest false positive for a random image
		}
	}
}
