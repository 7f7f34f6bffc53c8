package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/synth"
)

func TestRungSchedule(t *testing.T) {
	for maxIter, want := range map[int][]int{
		1:   nil,
		8:   nil,
		9:   {8},
		24:  {8},
		25:  {8, 24},
		30:  {8, 24},
		120: {8, 24, 72},
		250: {8, 24, 72, 216},
	} {
		if got := rungSchedule(maxIter); !reflect.DeepEqual(got, want) {
			t.Errorf("rungSchedule(%d) = %v, want %v", maxIter, got, want)
		}
	}
}

// statsDelta runs fn and returns what it added to the process counters.
func statsDelta(fn func()) TrainStats {
	before := TrainerStats()
	fn()
	after := TrainerStats()
	return TrainStats{
		Evals:        after.Evals - before.Evals,
		Starts:       after.Starts - before.Starts,
		StartsCapped: after.StartsCapped - before.StartsCapped,
		StartsPruned: after.StartsPruned - before.StartsPruned,
	}
}

// TestRaceAccounting: on the cold-query shape the field goes 120 → 40 → 14 →
// 5, the books say so, and the race's winner is one of the exhaustive run's
// candidates — the same trajectory, so never a lower objective than the
// exhaustive winner's — for less than a third of the evaluations.
func TestRaceAccounting(t *testing.T) {
	ds := benchDataset(3, 2)
	cfg := Config{Mode: SumConstraint}
	var raced, oracle *Concept
	got := statsDelta(func() {
		var err error
		if raced, err = Train(ds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	want := TrainStats{Evals: int64(raced.Evals), Starts: 120, StartsCapped: 5, StartsPruned: 115}
	if got != want {
		t.Errorf("race booked %+v, want %+v", got, want)
	}
	got = statsDelta(func() {
		var err error
		if oracle, err = exhaustive(ds, cfg); err != nil {
			t.Fatal(err)
		}
	})
	want = TrainStats{Evals: int64(oracle.Evals), Starts: 120, StartsCapped: 120}
	if got != want {
		t.Errorf("exhaustive run booked %+v, want %+v", got, want)
	}
	if raced.Starts != 120 || oracle.Starts != 120 {
		t.Errorf("Concept.Starts = %d raced, %d exhaustive; want the 120 launched", raced.Starts, oracle.Starts)
	}
	if raced.NegLogDD < oracle.NegLogDD {
		t.Errorf("raced −log DD %v below the exhaustive winner's %v", raced.NegLogDD, oracle.NegLogDD)
	}
	if 3*raced.Evals > oracle.Evals {
		t.Errorf("race spent %d evaluations, exhaustive run %d: less than 3× fewer", raced.Evals, oracle.Evals)
	}
}

// TestRaceEdgeShapes: fields too small to thin, caps too short for rungs and
// a restricted start set all train, deterministically, to a candidate of the
// exhaustive run.
func TestRaceEdgeShapes(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	single := randDataset(r, 4, 1, 2, 1) // one positive instance: one start
	small := randDataset(r, 4, 1, 1, 2)  // two starts
	wide := randDataset(r, 5, 4, 2, 6)   // 24 starts, 6 per bag
	for _, tc := range []struct {
		name   string
		ds     *mil.Dataset
		cfg    Config
		starts int
	}{
		{"one start", single, Config{Mode: SumConstraint}, 1},
		{"fewer starts than workers", small, Config{Mode: Original, Parallelism: 8}, 2},
		{"cap of one: no barrier", wide, Config{Mode: SumConstraint, Opt: optimize.Options{MaxIter: 1}}, 24},
		{"cap at the first rung: no barrier", wide, Config{Mode: Identical, Opt: optimize.Options{MaxIter: 8}}, 24},
		{"cap just past it: one barrier, one more iteration", wide, Config{Mode: Original, Opt: optimize.Options{MaxIter: 9}}, 24},
		{"start bags", wide, Config{Mode: SumConstraint, Beta: 0.5, StartBags: 2}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := exhaustive(tc.ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var digest string
			for _, par := range []int{tc.cfg.Parallelism, 1, 3} {
				cfg := tc.cfg
				cfg.Parallelism = par
				c, err := Train(tc.ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.Starts != tc.starts {
					t.Errorf("Starts = %d, want %d", c.Starts, tc.starts)
				}
				if c.NegLogDD < oracle.NegLogDD || c.Evals > oracle.Evals {
					t.Errorf("raced (−log DD %v, %d evals) against exhaustive (%v, %d)",
						c.NegLogDD, c.Evals, oracle.NegLogDD, oracle.Evals)
				}
				if !c.Point.IsFinite() || !c.Weights.IsFinite() {
					t.Errorf("non-finite concept")
				}
				if d := conceptDigest(c); digest == "" {
					digest = d
				} else if d != digest {
					t.Errorf("Parallelism %d trained a different concept", par)
				}
			}
			if len(rungSchedule(tc.cfg.withDefaults().Opt.MaxIter)) == 0 || tc.starts == 1 {
				// Nothing to thin: the race is the exhaustive run.
				if digest != conceptDigest(oracle) {
					t.Errorf("no barrier could drop a start, yet the race differs from the exhaustive run")
				}
			}
		})
	}
}

// TestRaceConvergedStartWins: a start that meets its tolerance inside the
// first rung is ranked at every barrier with the objective it stopped at,
// costs nothing more, and wins if nothing overtakes it.
func TestRaceConvergedStartWins(t *testing.T) {
	// Every positive bag holds the target itself, so the start on it begins
	// at the optimum with a vanishing gradient; negatives are far away.
	target := mat.Vector{1, -2, 0.5}
	r := rand.New(rand.NewSource(3))
	far := func() mat.Vector {
		v := target.Clone()
		for k := range v {
			v[k] += 8 + 4*r.Float64()
		}
		return v
	}
	ds := &mil.Dataset{}
	for i := 0; i < 3; i++ {
		ds.Positive = append(ds.Positive, &mil.Bag{ID: "p", Instances: []mat.Vector{far(), target.Clone(), far(), far()}})
	}
	ds.Negative = []*mil.Bag{{ID: "n", Instances: []mat.Vector{far(), far()}}}

	var c *Concept
	got := statsDelta(func() {
		var err error
		if c, err = Train(ds, Config{Mode: Identical}); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(c.Point, target) {
		t.Fatalf("winner %v, want the start that sat on the target %v", c.Point, target)
	}
	if converged := got.Starts - got.StartsCapped - got.StartsPruned; converged < 3 {
		t.Errorf("%+v: the three starts on the target should have stopped on the tolerance", got)
	}
	oracle, err := exhaustive(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(c.NegLogDD) != math.Float64bits(oracle.NegLogDD) {
		t.Errorf("raced −log DD %v, exhaustive %v", c.NegLogDD, oracle.NegLogDD)
	}
}

// TestRaceQuality holds the schedule's constants to the exhaustive run on
// the workload they were chosen for: two-round relevance feedback on
// featurized scenes (3 positives + 2 negatives, the second round's negatives
// the first round's top false positives), at the server's default β and the
// paper's. The race may pick another start; it may not pick a noticeably
// worse one, and the rankings it produces may not be worse on average.
// Forcing the barriers to keep one start in twenty fails every bound here
// (gap mean 0.025, worst 0.23, 9 of 48 sets beyond 0.05; precision@10 0.82 →
// 0.79) and three of the golden-set rows.
func TestRaceQuality(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("58 exhaustive trainings; the numbers do not depend on the race detector")
	}
	const perCat, sessions, k = 16, 12, 10
	items := synth.ScenesN(21, perCat)
	bags := make([]*mil.Bag, len(items))
	byCat := map[string][]int{}
	for i, it := range items {
		b, err := feature.BagFromImage(it.ID, gray.FromImage(it.Image), feature.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bags[i] = b
		byCat[it.Label] = append(byCat[it.Label], i)
	}
	// topK ranks the corpus minus the examples and returns the share of the
	// first k in the target category, and the false positives among them.
	topK := func(c *Concept, examples map[int]bool, target string) (precision float64, falsePos []int) {
		var order []int
		dist := make([]float64, len(bags))
		for i, b := range bags {
			if !examples[i] {
				order = append(order, i)
				dist[i], _ = c.BestInstance(b)
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
		hits := 0
		for _, i := range order[:k] {
			if items[i].Label == target {
				hits++
			} else {
				falsePos = append(falsePos, i)
			}
		}
		return float64(hits) / k, falsePos
	}

	r := rand.New(rand.NewSource(5))
	var sets, beyond int
	var sumGap, worstGap, sumRaced, sumOracle float64
	compare := func(name string, ds *mil.Dataset, cfg Config) (raced, oracle *Concept) {
		t.Helper()
		oracle, err := exhaustive(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raced, err = Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gap := raced.NegLogDD - oracle.NegLogDD
		if gap < 0 || gap > 0.1 {
			t.Errorf("%s: raced −log DD %.4f, exhaustive %.4f", name, raced.NegLogDD, oracle.NegLogDD)
		}
		return raced, oracle
	}
	for s := 0; s < sessions; s++ {
		target := synth.SceneCategories[s%len(synth.SceneCategories)]
		pick := r.Perm(perCat)[:3]
		positives := []int{byCat[target][pick[0]], byCat[target][pick[1]], byCat[target][pick[2]]}
		outsider := func(taken map[int]bool) int {
			for {
				if i := r.Intn(len(bags)); items[i].Label != target && !taken[i] {
					taken[i] = true
					return i
				}
			}
		}
		first := map[int]bool{}
		firstNegatives := []int{outsider(first), outsider(first)}
		for _, beta := range []float64{0, 0.5} {
			negatives := firstNegatives
			for round := 1; round <= 2; round++ {
				ds := &mil.Dataset{}
				examples := map[int]bool{}
				for _, i := range positives {
					ds.Positive = append(ds.Positive, bags[i])
					examples[i] = true
				}
				for _, i := range negatives {
					ds.Negative = append(ds.Negative, bags[i])
					examples[i] = true
				}
				raced, oracle := compare(target, ds, Config{Mode: SumConstraint, Beta: beta})
				gap := raced.NegLogDD - oracle.NegLogDD
				sets++
				sumGap += gap
				worstGap = math.Max(worstGap, gap)
				if gap > 0.05 {
					beyond++
				}
				pRaced, _ := topK(raced, examples, target)
				pOracle, falsePos := topK(oracle, examples, target)
				sumRaced += pRaced
				sumOracle += pOracle
				for len(falsePos) < 2 {
					falsePos = append(falsePos, outsider(examples))
				}
				negatives = falsePos[:2]
			}
		}
	}
	n := float64(sets)
	t.Logf("%d example sets: −log DD gap mean %.4f, worst %.4f, %d beyond 0.05; precision@%d raced %.4f, exhaustive %.4f",
		sets, sumGap/n, worstGap, beyond, k, sumRaced/n, sumOracle/n)
	if sumGap/n > 0.01 {
		t.Errorf("mean −log DD gap %.4f over %d sets, want ≤ 0.01", sumGap/n, sets)
	}
	if 10*beyond > sets {
		t.Errorf("%d of %d sets lose more than 0.05 of −log DD to the exhaustive run, want at most one in ten", beyond, sets)
	}
	if sumRaced/n < sumOracle/n-0.02 {
		t.Errorf("mean precision@%d %.4f raced against %.4f exhaustive, want no lower than 0.02 below", k, sumRaced/n, sumOracle/n)
	}

	// The golden sets, every weight mode: no corpus to rank, so −log DD only.
	for _, set := range []struct {
		name string
		ds   *mil.Dataset
	}{{"bench32", benchDataset(3, 2)}, {"scenes", sceneDataset(t)}} {
		for _, cfg := range []Config{
			{Mode: Original, StartBags: 1},
			{Mode: Identical, StartBags: 1},
			{Mode: SumConstraint},
			{Mode: SumConstraint, Beta: 0.5},
		} {
			compare(set.name+"/"+cfg.Mode.String(), set.ds, cfg)
		}
	}
}
