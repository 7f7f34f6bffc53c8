package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/server"
)

// httpClient is the harness's side of the loopback connection pool: at
// most conns connections, kept alive across ops.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one op and reads the whole reply. start and end bracket what
// a caller of the API waits for: request written to last reply byte read.
func (c *httpClient) do(o op) (status int, body []byte, start, end time.Time, err error) {
	req, err := http.NewRequest(o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, start, end, err
	}
	req.Header.Set("Content-Type", "application/json")
	start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, start, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	end = time.Now()
	resp.Body.Close()
	return resp.StatusCode, body, start, end, err
}

// phase accumulates one measured interval's samples. Failed and
// wrong-answer ops count against attempted and contribute no latency.
type phase struct {
	mu        sync.Mutex
	lat       map[opClass][]float64 // ms, successful ops only
	attempted int
	failed    int
	precSum   float64 // over successful query ops
	precN     int
	errs      []string // first few failures, for the report
	elapsed   time.Duration
}

func newPhase() *phase { return &phase{lat: map[opClass][]float64{}} }

func (p *phase) add(class opClass, d time.Duration, prec float64, hasPrec bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	p.lat[class] = append(p.lat[class], ms(d))
	if hasPrec {
		p.precSum += prec
		p.precN++
	}
}

// merge folds another phase's samples into p.
func (p *phase) merge(o *phase) {
	for class, xs := range o.lat {
		p.lat[class] = append(p.lat[class], xs...)
	}
	p.attempted += o.attempted
	p.failed += o.failed
	p.precSum += o.precSum
	p.precN += o.precN
	p.errs = append(p.errs, o.errs...)
	p.elapsed += o.elapsed
}

func (p *phase) succeeded() int { return p.attempted - p.failed }

func (p *phase) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.succeeded()) / p.elapsed.Seconds()
}

func (p *phase) precision() float64 {
	if p.precN == 0 {
		return 0
	}
	return p.precSum / float64(p.precN)
}

// runner drives one workload's stack: priming, checks and measured
// phases.
type runner struct {
	w   *world
	tr  traffic
	st  *stack
	t   *tracer
	cli *httpClient

	// Per fingerprint, from priming: the pinned answer, its precision
	// and the trained geometry.
	expected  [][]ranked
	precision []float64
	concepts  []server.ConceptGeometry
	sched     *schedule
	nextOp    atomic.Int64

	// cold_feedback only: the session plan, and the latest example sets
	// with the geometries they trained (what the layer probes replay).
	plan        *feedbackPlan
	recentSets  []exampleSet
	recentGeoms []server.ConceptGeometry

	ackMu sync.Mutex
	acked map[string]string // image ID → last acknowledged label
}

func newRunner(w *world, st *stack, t *tracer, seed int64) *runner {
	tr := trafficFor(w.name)
	r := &runner{w: w, tr: tr, st: st, t: t, cli: newHTTPClient(st.front.URL, tr.clients), acked: map[string]string{}}
	r.sched = newSchedule(w, tr)
	if w.scenes != nil {
		r.plan = newFeedbackPlan(seed, w.scenes.ByCat, w.prof.positives, w.prof.negatives)
	}
	return r
}

// prime brings the stack to the state the measured phase assumes: the
// ingest pool written (mixed_rw) and every rotating fingerprint trained
// once, so all later queries hit. It is part of set-up time. Replies are
// kept for the checks that follow, which are not.
func (r *runner) prime() error {
	for _, o := range r.sched.ingests {
		if err := r.checkOp(o); err != nil {
			return fmt.Errorf("prime ingest %s: %w", o.id, err)
		}
	}
	r.expected, r.precision, r.concepts = nil, nil, nil
	for fp, es := range r.w.sets {
		q := vectorQuery
		q.returnConcept = true
		status, body, _, _, err := r.cli.do(op{method: http.MethodPost, path: "/v1/query", body: queryBody(es, q)})
		var resp server.QueryResponse
		if err == nil {
			resp, err = checkQueryReply(status, body, queryExpect{cache: "miss"})
		}
		if err == nil && resp.Concept == nil {
			err = fmt.Errorf("reply carries no concept")
		}
		if err != nil {
			return fmt.Errorf("prime fingerprint %d: %w", fp, err)
		}
		got := rankedOf(resp.Results)
		r.expected = append(r.expected, got)
		r.precision = append(r.precision, precisionAt(got, precisionAtK, r.w.cat, es.Cat))
		r.concepts = append(r.concepts, *resp.Concept)
	}
	r.sched.setBatches(r.concepts)
	return nil
}

func (r *runner) ack(id, label string) {
	r.ackMu.Lock()
	r.acked[id] = label
	r.ackMu.Unlock()
}

// verifyPrimed runs the checks that pin the primed answers: the oracle
// on every workload with generator vectors, then the workload's spine
// check.
func (r *runner) verifyPrimed() error {
	if r.w.vec == nil {
		return nil
	}
	errs := make([]error, len(r.concepts))
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fp := int(next.Add(1)) - 1; fp < len(r.concepts); fp = int(next.Add(1)) - 1 {
				g := r.concepts[fp]
				want := oracleTopK(r.w.oracle, g.Point, g.Weights, topK)
				if err := sameRanking(r.expected[fp], want); err != nil {
					errs[fp] = fmt.Errorf("oracle: fingerprint %d: %w", fp, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	switch r.w.name {
	case wlWarmScan:
		return r.spineWarmScan()
	case wlFanout:
		return r.spineFanout()
	}
	return nil
}

// spineWarmScan: the sketch-pruned scan and the batched scan answer
// exactly what the exact single-query scan answered.
func (r *runner) spineWarmScan() error {
	for fp := range r.w.sets {
		if err := r.checkOp(r.sched.queryOp(fp, true)); err != nil {
			return fmt.Errorf("spine: pruned fingerprint %d: %w", fp, err)
		}
	}
	// Every fingerprint appears in one of eight evenly spaced batches.
	for b := 0; b < len(r.sched.batches); b += max(1, len(r.sched.batches)/8) {
		if err := r.checkOp(r.sched.batchOp(b)); err != nil {
			return fmt.Errorf("spine: batch %d: %w", b, err)
		}
	}
	return nil
}

// spineFanout: the coordinator's answers equal those of the same
// four-shard store opened in one process, trained from scratch there.
// It runs before the first mutation, so the reference's open cannot see
// a partition's mutation log mid-write.
func (r *runner) spineFanout() error {
	ref, err := milret.LoadDatabase(r.w.storePath, milret.Options{})
	if err != nil {
		return fmt.Errorf("spine: open in-process reference: %w", err)
	}
	defer ref.Close()
	for fp, es := range r.w.sets {
		c, err := ref.Train(es.Positives, es.Negatives, milret.TrainOptions{Mode: milret.ConstrainedWeights, Beta: vectorBeta})
		if err != nil {
			return fmt.Errorf("spine: reference train %d: %w", fp, err)
		}
		var got []ranked
		for _, res := range ref.Retrieve(c, topK) {
			got = append(got, ranked{res.ID, res.Distance})
		}
		if err := sameRanking(r.expected[fp], got); err != nil {
			return fmt.Errorf("spine: distributed vs in-process, fingerprint %d: %w", fp, err)
		}
	}
	return nil
}

// checkOp sends one op outside any measured phase and validates it.
func (r *runner) checkOp(o op) error {
	status, body, _, _, err := r.cli.do(o)
	if err != nil {
		return err
	}
	_, _, err = r.validate(o, status, body)
	return err
}

// validate checks a cycle op's reply against what priming pinned.
func (r *runner) validate(o op, status int, body []byte) (prec float64, hasPrec bool, err error) {
	switch o.class {
	case opQuery, opPruned:
		exp := queryExpect{cache: "hit", want: r.expected[o.fps[0]]}
		if o.class == opPruned {
			exp.prune = "filtered"
		}
		if _, err := checkQueryReply(status, body, exp); err != nil {
			return 0, false, err
		}
		return r.precision[o.fps[0]], o.class == opQuery, nil
	case opBatch:
		want := make([][]ranked, len(o.fps))
		for i, fp := range o.fps {
			want[i] = r.expected[fp]
		}
		return 0, false, checkBatchReply(status, body, want)
	default:
		if err := checkMutationReply(status, body, o.id, o.label); err != nil {
			return 0, false, err
		}
		r.ack(o.id, o.label)
		return 0, false, nil
	}
}

// drive runs closed-loop clients for d and returns what they measured.
// Each client takes the next global op index, sends it, waits for the
// whole reply, validates it, and only then takes another. An op that has
// started when d expires still completes and counts.
func (r *runner) drive(d time.Duration, clients int) *phase {
	p := newPhase()
	start := time.Now()
	deadline := start.Add(d)
	if r.plan != nil {
		r.driveFeedback(p, deadline)
		p.elapsed = time.Since(start)
		return p
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := r.nextOp.Add(1) - 1
				o := r.sched.at(i)
				if r.t != nil {
					r.t.cur.Store(i)
				}
				status, body, t0, t1, err := r.cli.do(o)
				var prec float64
				var hasPrec bool
				if err == nil {
					prec, hasPrec, err = r.validate(o, status, body)
				}
				r.t.record(o.class, i, t0, t1)
				p.add(o.class, t1.Sub(t0), prec, hasPrec, err)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// driveFeedback runs cold_feedback's relevance-feedback sessions on one
// client until the deadline: a first round, then a second with the first
// round's top false positives as negatives. Both are `query` ops and
// both must miss the concept cache.
func (r *runner) driveFeedback(p *phase, deadline time.Time) {
	for time.Now().Before(deadline) {
		first := r.plan.session()
		res, ok := r.feedbackRound(p, first)
		if !ok || !time.Now().Before(deadline) {
			continue
		}
		var falsePositives []string
		for _, row := range res {
			if r.w.cat[row.ID] != first.Cat {
				falsePositives = append(falsePositives, row.ID)
			}
		}
		r.feedbackRound(p, r.plan.refine(first, falsePositives))
	}
}

func (r *runner) feedbackRound(p *phase, es exampleSet) ([]ranked, bool) {
	i := r.nextOp.Add(1) - 1
	if r.t != nil {
		r.t.cur.Store(i)
	}
	q := feedbackQuery
	q.returnConcept = r.t != nil // the layer probes replay the trained geometry
	o := op{class: opQuery, method: http.MethodPost, path: "/v1/query", body: queryBody(es, q)}
	status, body, t0, t1, err := r.cli.do(o)
	var res []ranked
	var prec float64
	if err == nil {
		var resp server.QueryResponse
		if resp, err = checkQueryReply(status, body, queryExpect{cache: "miss"}); err == nil {
			res = rankedOf(resp.Results)
			prec = precisionAt(res, precisionAtK, r.w.cat, es.Cat)
			if resp.Concept != nil {
				r.recentSets = append(r.recentSets, es)
				r.recentGeoms = append(r.recentGeoms, *resp.Concept)
				if len(r.recentSets) > probeConcepts {
					r.recentSets, r.recentGeoms = r.recentSets[1:], r.recentGeoms[1:]
				}
			}
		}
	}
	r.t.record(opQuery, i, t0, t1)
	p.add(opQuery, t1.Sub(t0), prec, true, err)
	return res, err == nil
}
