package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"milret/internal/server"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{20, 0},       // nothing beyond even p90
		{50, 0},       // 4 beyond p90
		{100, 0},      // 9 beyond p90
		{101, 90},     // 10 beyond p90
		{180, 90},     // the smallest reported class: 17 beyond p90, 8 beyond p95
		{300, 95},     // 14 beyond p95, 2 beyond p99
		{1316, 99},    // 13 beyond p99, 1 beyond p99.9
		{20000, 99.9}, // 19 beyond p99.9
	}
	for _, c := range cases {
		if got := highestSupportedTail(c.n); got != c.want {
			t.Errorf("highestSupportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	few := make([]float64, 50)
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(i)
		if i < len(few) {
			few[i] = float64(i)
		}
	}
	if s := summarize(few); s.P90 != 0 || s.P50 != 24.5 {
		t.Errorf("50 samples: p50 %v p90 %v, want 24.5 and no p90", s.P50, s.P90)
	}
	if s := summarize(many); math.Abs(s.P90-179.1) > 1e-9 || s.TailP != 90 {
		t.Errorf("200 samples: p90 %v tail p%v, want 179.1 at p90", s.P90, s.TailP)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// One op: handler → backend.Retrieve fanning out to four shard
	// handlers that overlap each other, then a second backend call.
	spans := []span{
		{Name: spanClientOp, Class: opQuery, Trace: 7, Start: 0, End: 1000},
		{Name: spanHandler, Trace: 7, Start: 100, End: 900},
		{Name: spanBackend + "TrainCachedContext", Trace: 7, Start: 150, End: 250},
		{Name: spanBackend + "Retrieve", Trace: 7, Start: 300, End: 800},
		{Name: spanShardHandler, Trace: 7, Start: 310, End: 500},
		{Name: spanShardHandler, Trace: 7, Start: 320, End: 480}, // inside its sibling's interval
		{Name: spanShardHandler, Trace: 7, Start: 400, End: 600},
		{Name: spanShardHandler, Trace: 7, Start: 700, End: 750},
	}
	rand.New(rand.NewSource(1)).Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	linkParents(spans)
	self := selfTimes(spans)
	byName := map[string][]int64{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], self[i])
		if s.Name == spanShardHandler && spans[s.Parent].Name != spanBackend+"Retrieve" {
			t.Errorf("shard handler [%d,%d] parented by %s", s.Start, s.End, spans[s.Parent].Name)
		}
	}
	// Retrieve: 500 long; shard handlers cover [310,600] ∪ [700,750] = 340.
	want := map[string]int64{
		spanClientOp:                       200,
		spanHandler:                        800 - 100 - 500,
		spanBackend + "TrainCachedContext": 100,
		spanBackend + "Retrieve":           160,
	}
	for name, w := range want {
		if got := byName[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %d", name, got, w)
		}
	}
	b := budgetByClass(spans)[opQuery]
	if got := b.median(spanShardHandler); got != 340.0/1e6 {
		t.Errorf("shard-handler share = %v ms, want %v", got, 340.0/1e6)
	}
	if r := b.residual(); r > 1e-12 {
		t.Errorf("one op's components must sum to its wall time; residual %v", r)
	}
}

// testWorld generates a quick-profile world in a temp directory.
func testWorld(t *testing.T, name string, seed int64) *world {
	t.Helper()
	w, err := buildWorld(name, seed, quickProfile, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fakeConcepts stands in for trained geometries where only their bytes
// matter.
func fakeConcepts(seed int64, dim int) []server.ConceptGeometry {
	r := rand.New(rand.NewSource(seed))
	out := make([]server.ConceptGeometry, quickProfile.fingerprints)
	for i := range out {
		out[i].Point, out[i].Weights = make([]float64, dim), make([]float64, dim)
		for k := 0; k < dim; k++ {
			out[i].Point[k], out[i].Weights[k] = r.NormFloat64(), r.Float64()
		}
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{wlWarmScan, wlMixedRW, wlFanout} {
		render := func(seed int64) (ops []op, sets []exampleSet) {
			w := testWorld(t, name, seed)
			s := newSchedule(w, trafficFor(name))
			s.setBatches(fakeConcepts(9, w.vec.Dim))
			for i := int64(0); i < 200; i++ {
				ops = append(ops, s.at(i))
			}
			return ops, w.sets
		}
		a, setsA := render(5)
		b, setsB := render(5)
		c, setsC := render(6)
		for i := range a {
			if a[i].class != b[i].class || a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: op %d differs between two runs of seed 5", name, i)
			}
		}
		if !reflect.DeepEqual(setsA, setsB) {
			t.Errorf("%s: example sets differ between two runs of seed 5", name)
		}
		if reflect.DeepEqual(setsA, setsC) {
			t.Errorf("%s: seeds 5 and 6 drew the same example sets", name)
		}
		same := 0
		for i := range a {
			if bytes.Equal(a[i].body, c[i].body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 5 and 6 produced identical request bodies", name)
		}
		tr := trafficFor(name)
		for i, o := range a {
			if o.class != tr.cycle[i%len(tr.cycle)] {
				t.Fatalf("%s: op %d has class %s, cycle says %s", name, i, o.class, tr.cycle[i%len(tr.cycle)])
			}
		}
	}
}

func TestFeedbackPlanNeverRepeatsAnExampleSet(t *testing.T) {
	w := testWorld(t, wlColdFeedback, 3)
	draw := func(seed int64) []string {
		p := newFeedbackPlan(seed, w.scenes.ByCat, 3, 2)
		var keys []string
		for s := 0; s < 40; s++ {
			first := p.session()
			second := p.refine(first, nil) // no false positives: random top-up
			third := p.refine(first, first.Negatives[:1])
			keys = append(keys, setKey(first.Positives, first.Negatives), setKey(second.Positives, second.Negatives), setKey(third.Positives, third.Negatives))
			if len(first.Positives) != 3 || len(second.Negatives) != 2 || len(third.Negatives) != 2 {
				t.Fatalf("session %d: wrong example counts %v %v %v", s, first, second, third)
			}
			for _, es := range []exampleSet{first, second, third} {
				for _, id := range es.Positives {
					if w.cat[id] != es.Cat {
						t.Fatalf("positive %s is not of category %d", id, es.Cat)
					}
				}
				for _, id := range es.Negatives {
					if w.cat[id] == es.Cat {
						t.Fatalf("negative %s is of the positives' category", id)
					}
				}
			}
		}
		return keys
	}
	a, b, c := draw(1), draw(1), draw(2)
	seen := map[string]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("example set %s handed out twice: the second query would hit the cache", k)
		}
		seen[k] = true
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew different sessions")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same sessions")
	}
}

func TestCheckersCatchPlantedFaults(t *testing.T) {
	corpus := genVectorCorpus(11, 240, 6, 16)
	point, weights := make([]float64, 16), make([]float64, 16)
	for k := range point {
		point[k], weights[k] = corpus.Records[3].Bag.Instances[0][k], 0.5+float64(k%3)/4
	}
	want := oracleTopK(corpus.Records, point, weights, topK)
	if len(want) != topK {
		t.Fatalf("oracle returned %d rows", len(want))
	}
	for i := 1; i < len(want); i++ {
		if want[i].Dist < want[i-1].Dist {
			t.Fatal("oracle ranking is not ascending")
		}
	}

	reply := func(mutate func(*server.QueryResponse)) []byte {
		resp := server.QueryResponse{NegLogDD: 1.5, Cache: "hit"}
		for _, row := range want {
			resp.Results = append(resp.Results, server.QueryResult{ID: row.ID, Label: "mutable", Distance: row.Dist})
		}
		if mutate != nil {
			mutate(&resp)
		}
		return mustJSON(resp)
	}
	exp := queryExpect{cache: "hit", want: want}
	if _, err := checkQueryReply(http.StatusOK, reply(nil), exp); err != nil {
		t.Fatalf("a correct reply was rejected: %v", err)
	}
	faults := map[string]func(*server.QueryResponse){
		"wrong id":           func(r *server.QueryResponse) { r.Results[4].ID = "img-999999" },
		"swapped neighbours": func(r *server.QueryResponse) { r.Results[1], r.Results[2] = r.Results[2], r.Results[1] },
		"one distance bit": func(r *server.QueryResponse) {
			r.Results[7].Distance = math.Float64frombits(math.Float64bits(r.Results[7].Distance) ^ 1)
		},
		"cache miss where a hit is due": func(r *server.QueryResponse) { r.Cache = "miss" },
		"unexpected prune disposition":  func(r *server.QueryResponse) { r.Prune = "filtered" },
		"short ranking":                 func(r *server.QueryResponse) { r.Results = r.Results[:topK-1] },
	}
	for name, plant := range faults {
		if _, err := checkQueryReply(http.StatusOK, reply(plant), exp); err == nil {
			t.Errorf("planted fault %q passed the checker", name)
		}
	}
	if _, err := checkQueryReply(http.StatusInternalServerError, reply(nil), exp); err == nil {
		t.Error("a 500 passed the checker")
	}
	if _, err := checkQueryReply(http.StatusOK, append(reply(nil), []byte(`{"x":1}`)...), exp); err == nil {
		t.Error("trailing data passed the checker")
	}

	// The oracle itself: a planted wrong row in the "program's" answer.
	got := append([]ranked(nil), want...)
	got[0].ID = want[1].ID
	if sameRanking(got, want) == nil {
		t.Error("oracle comparison missed a wrong ID")
	}
	// Spine: a batch whose second entry is another concept's answer.
	batch := server.BatchRetrieveResponse{Results: make([][]server.QueryResult, 2)}
	for i := range batch.Results {
		for _, row := range want {
			batch.Results[i] = append(batch.Results[i], server.QueryResult{ID: row.ID, Distance: row.Dist})
		}
	}
	if err := checkBatchReply(http.StatusOK, mustJSON(batch), [][]ranked{want, want}); err != nil {
		t.Fatalf("a correct batch was rejected: %v", err)
	}
	batch.Results[1][0].Distance += 1
	if checkBatchReply(http.StatusOK, mustJSON(batch), [][]ranked{want, want}) == nil {
		t.Error("spine check missed a wrong batch entry")
	}
	if checkMutationReply(http.StatusOK, mustJSON(server.ImageInfo{ID: "a", Label: "old"}), "a", "new") == nil {
		t.Error("mutation check missed a stale label in the acknowledgement")
	}
}

func TestPrecisionUsesGroundTruthNotLabels(t *testing.T) {
	cat := map[string]int{"a": 1, "b": 1, "c": 2, "d": 1}
	rows := []ranked{{"a", 1}, {"c", 2}, {"b", 3}, {"d", 4}}
	if got := precisionAt(rows, 2, cat, 1); got != 0.5 {
		t.Errorf("precision@2 = %v, want 0.5", got)
	}
	if got := precisionAt(rows, 10, cat, 1); got != 0.75 {
		t.Errorf("precision over a short list = %v, want 0.75", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 1.2, 1.3, 2.0], n=4) == [1.05, 1.25, 1.825]
	q1, q3 = quartiles([]float64{1.0, 1.2, 1.3, 2.0})
	if math.Abs(q1-1.05) > 1e-12 || math.Abs(q3-1.825) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 1.05, 1.825", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := bounded{"latency_ms", "ms", false, 0.10}
	higher := bounded{"throughput", "ops/s", true, 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name string
		v    verdict
		want string
	}{
		{"same", verdict{metric: lower, baseline: steady, change: steady}, "unchanged"},
		{"8% slower is inside the bound", verdict{metric: lower, baseline: steady, change: scale(steady, 1.08)}, "unchanged"},
		{"15% slower", verdict{metric: lower, baseline: steady, change: scale(steady, 1.15)}, "regression"},
		{"15% fewer ops", verdict{metric: higher, baseline: steady, change: scale(steady, 0.85)}, "regression"},
		{"15% more ops", verdict{metric: higher, baseline: steady, change: scale(steady, 1.15)}, "unchanged"},
		{"spread wider than the bound", verdict{metric: lower, baseline: []float64{8, 10, 12, 9, 11}, change: steady}, "unresolved"},
		{"wide spread but every run better", verdict{metric: lower, baseline: []float64{8, 10, 12, 9, 11}, change: scale(steady, 0.5)}, "unchanged"},
	}
	for _, c := range cases {
		if got := c.v.status(); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, factor float64) string {
		set := runSet{}
		for seed := int64(1); seed <= 3; seed++ {
			rep := report{Workload: wlWarmScan, Seed: seed, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"query_p50_ms": {3 * factor, "ms"}, "ops_per_s": {200 / factor, "ops/s"},
			}}, Extra: map[string]metric{"batch_p50_ms": {16, "ms"}}}
			set.Runs = append(set.Runs, rep)
		}
		path := dir + "/" + name
		if err := writeJSONFile(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 1), write("b.json", 1.3)
	var out bytes.Buffer
	if err := cmdCompare([]string{a, a}, &out); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := cmdCompare([]string{a, b}, &out); err == nil || !strings.Contains(out.String(), "regression") {
		t.Errorf("a 30%% slowdown was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "batch_p50_ms") {
		t.Errorf("class metrics are missing from the comparison:\n%s", out.String())
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestQuickRunMatchesContract runs every workload end to end and traced
// on the quick profile — every path, check and probe, on corpora too
// small to measure — and holds the output against BENCHMARK.json: every
// declared metric is emitted on every workload with the declared unit,
// nothing undeclared is, and the file stays inside the contract's limits.
func TestQuickRunMatchesContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, %d bytes", bf.RunSeconds, len(raw))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	var declared []string
	for _, w := range bf.Workloads {
		unique(w.Name)
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", declared, workloadNames)
	}
	e2e := map[string]string{}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		e2e[m.Name] = m.Unit
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if i >= len(endToEndMetrics) {
			continue
		}
		want := endToEndMetrics[i]
		better := map[bool]string{true: "higher", false: "lower"}[want.higher]
		if m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || m.Better != better {
			t.Errorf("end_to_end[%d] = %+v, `bench compare` applies %+v", i, m, want)
		}
	}
	if !hasSetup || len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("end_to_end must be the harness's %d metrics and include setup_s", len(endToEndMetrics))
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		unique(m.Name)
		layer[m.Name] = m.Unit
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}

	scratch := t.TempDir()
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			start := time.Now()
			rep, err := runWorkload(config{
				workload: wl, seed: 7, seconds: 0.4, trace: trace, quick: true,
				benchDir: scratch, buildDir: scratch,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", wl, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := e2e
			if trace {
				want = layer
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", wl, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s: %s has unit %q, declared %q", wl, name, got.Unit, unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s = %v", wl, name, got.Value)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl, name)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: emits %s, which BENCHMARK.json does not declare", wl, trace, name)
				}
			}
			if _, err := json.Marshal(rep.result); err != nil {
				t.Errorf("%s: result does not encode: %v", wl, err)
			}
			if trace {
				// The cache dispositions the workloads are designed around.
				wantHits := 1.0
				if wl == wlColdFeedback {
					wantHits = 0
				}
				if got := rep.Metrics["qcache.hit_ratio"].Value; got != wantHits {
					t.Errorf("%s: qcache.hit_ratio %v, want %v", wl, got, wantHits)
				}
				if evals := rep.Metrics["core.evals_per_query"].Value; (evals == 0) != (wl != wlColdFeedback) {
					t.Errorf("%s: core.evals_per_query %v", wl, evals)
				}
			}
			t.Logf("%s trace=%v: %d ops in %v", wl, trace, rep.Attempted, time.Since(start).Round(time.Millisecond))
		}
		if _, err := os.Stat(scratch + "/out/" + wl + "-seed7.trace.json"); err != nil {
			t.Errorf("%s: no trace written: %v", wl, err)
		}
	}
	if entries, _ := os.ReadDir(scratch + "/run"); len(entries) != 0 {
		t.Errorf("runs left %d work directories behind", len(entries))
	}
}
