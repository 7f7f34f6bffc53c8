package remote

import (
	"context"
	"fmt"
	"image"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/index"
	"milret/internal/qcache"
	"milret/internal/retrieval"
	"milret/internal/server"
)

// partition is one topology slot at runtime: either a locally opened
// database or a client to a remote shard server, plus the health state
// the probe loop maintains.
type partition struct {
	spec PartitionSpec
	db   *milret.Database // local partitions; nil when remote
	cli  *Client          // remote partitions; nil when local

	mu sync.Mutex
	// milret:guarded-by mu
	healthy bool
	// milret:guarded-by mu
	lastErr string
	// milret:guarded-by mu
	images int
	// milret:guarded-by mu
	verify milret.VerifyStatus
}

func (p *partition) remote() bool { return p.cli != nil }

// note records a probe or RPC outcome. A recovery keeps the previous
// error string for postmortems; only a new failure overwrites it.
func (p *partition) note(healthy bool, err error) {
	p.mu.Lock()
	p.healthy = healthy
	if err != nil {
		p.lastErr = err.Error()
	}
	p.mu.Unlock()
}

func (p *partition) snapshot() (healthy bool, lastErr string, images int, verify milret.VerifyStatus) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy, p.lastErr, p.images, p.verify
}

// CoordinatorOptions tunes a coordinator beyond what the topology file
// carries (the file describes the fleet; these describe this process).
type CoordinatorOptions struct {
	// ConceptCacheMB sizes the coordinator's own concept cache (training
	// happens on the coordinator from fetched example bags); 0 disables
	// it.
	ConceptCacheMB int
	// Recall is the default candidate-pruning tier for queries that do
	// not set one (forwarded to every partition; see milret
	// Options.Recall).
	Recall float64
	// Local configures how local (path-backed) partitions are opened.
	Local milret.Options
}

// Coordinator fans queries across a topology of partitions and merges
// their answers so the /v1 surface behaves like one database. It
// implements server.Backend; see the package comment for the merge
// protocol's correctness argument.
type Coordinator struct {
	topo   *Topology
	parts  []*partition
	cache  *qcache.Cache
	recall float64

	degraded atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var _ server.Backend = (*Coordinator)(nil)

// NewCoordinator opens every local partition, builds clients for the
// remote ones, runs one synchronous health probe (so the first query
// sees real health state, not optimistic defaults), and starts the
// background probe loop. Call Close when done.
func NewCoordinator(topo *Topology, opts CoordinatorOptions) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		topo:   topo,
		recall: opts.Recall,
		stop:   make(chan struct{}),
	}
	if opts.ConceptCacheMB > 0 {
		c.cache = qcache.New(int64(opts.ConceptCacheMB) << 20)
	}
	for _, spec := range topo.Partitions {
		p := &partition{spec: spec, healthy: true}
		if spec.Remote() {
			p.cli = NewClient(spec.Addr, topo.RPCTimeout(), topo.Retries, topo.Backoff())
		} else {
			db, err := milret.LoadDatabase(spec.Path, opts.Local)
			if err != nil {
				c.closePartitions()
				return nil, fmt.Errorf("remote: open partition %q: %w", spec.Name, err)
			}
			p.db = db
		}
		c.parts = append(c.parts, p)
	}
	c.probeAll(context.Background())
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Close stops the probe loop and flushes local partitions. Like
// milret.Database.Close it tolerates a second and a concurrent call.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return c.closePartitions()
}

func (c *Coordinator) closePartitions() error {
	var first error
	for _, p := range c.parts {
		if p.db != nil {
			if err := p.db.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// healthLoop probes every partition at the topology's configured
// interval until Close.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.topo.HealthInterval())
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll(context.Background())
		}
	}
}

// probeAll refreshes each partition's health, image count and
// verification state. Local partitions never fail a probe — their
// failures are load failures, caught before the coordinator exists.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range c.parts {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			c.probe(ctx, p)
		}(p)
	}
	wg.Wait()
}

func (c *Coordinator) probe(ctx context.Context, p *partition) {
	if !p.remote() {
		status, _ := p.db.Verification()
		p.mu.Lock()
		p.healthy = true
		p.images = p.db.Len()
		p.verify = status
		p.mu.Unlock()
		return
	}
	pong, err := p.cli.Ping(ctx)
	if err != nil {
		p.note(false, err)
		return
	}
	p.mu.Lock()
	p.healthy = true
	p.images = int(pong.Images)
	p.verify = milret.VerifyStatus(pong.Verify)
	p.mu.Unlock()
}

// owner returns the partition that placement assigns id to.
func (c *Coordinator) owner(id string) *partition {
	return c.parts[retrieval.ShardIndexFor(id, len(c.parts))]
}

// unavailable wraps a partition failure for the partial-result policy
// and the HTTP 503 mapping. Client errors already carry the sentinel;
// this is for coordinator-side verdicts (e.g. a down partition skipped
// without even issuing an RPC).
func unavailable(p *partition, err error) error {
	return fmt.Errorf("remote: partition %q: %v: %w", p.spec.Name, err, milret.ErrUnavailable)
}

// --- server.Backend: introspection -----------------------------------

// Verification merges partition verification states, reporting the
// worst: corrupt anywhere is corrupt everywhere (results merged from a
// corrupt block cannot be trusted), else pending anywhere is pending.
// An unreachable partition reports as pending — its state is unknown,
// not known-bad — with the probe error attached.
func (c *Coordinator) Verification() (milret.VerifyStatus, error) {
	worst := milret.VerifyVerified
	var firstErr error
	for _, p := range c.parts {
		healthy, lastErr, _, verify := p.snapshot()
		if !healthy {
			if worst < milret.VerifyPending {
				worst = milret.VerifyPending
			}
			if firstErr == nil {
				firstErr = unavailable(p, fmt.Errorf("unreachable: %s", lastErr))
			}
			continue
		}
		if verify > worst {
			worst = verify
			if verify == milret.VerifyCorrupt && firstErr == nil {
				firstErr = fmt.Errorf("remote: partition %q reports corrupt data", p.spec.Name)
			}
		}
	}
	return worst, firstErr
}

// Len sums the partitions' live image counts as of their last probe or
// mutation ack (best-effort while a partition is unreachable: its last
// known count is used).
func (c *Coordinator) Len() int {
	n := 0
	for _, p := range c.parts {
		_, _, images, _ := p.snapshot()
		n += images
	}
	return n
}

// Recall returns the coordinator's default candidate-pruning tier.
func (c *Coordinator) Recall() float64 { return c.recall }

// Stats merges the reachable partitions' stats trees (shard rows are
// concatenated in topology order, totals summed), attaches the
// coordinator's own concept-cache counters, and reports the per-
// partition health block. Stats never fails: an unreachable partition
// contributes only its health row.
func (c *Coordinator) Stats() milret.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), c.topo.RPCTimeout())
	defer cancel()
	var st milret.Stats
	st.PartialPolicy = c.topo.PartialPolicy()
	st.DegradedQueries = c.degraded.Load()
	for _, p := range c.parts {
		var (
			ps  milret.Stats
			err error
		)
		if p.remote() {
			ps, err = p.cli.Stats(ctx)
		} else {
			ps = p.db.Stats()
		}
		healthy, lastErr, images, _ := p.snapshot()
		row := milret.PartitionStats{
			Name:      p.spec.Name,
			Addr:      p.spec.Addr,
			Healthy:   healthy && err == nil,
			LastError: lastErr,
			Images:    images,
		}
		if err != nil {
			row.LastError = err.Error()
			p.note(false, err)
		} else {
			row.Images = ps.Images
			p.mu.Lock()
			p.images = ps.Images
			p.mu.Unlock()
			st.Images += ps.Images
			st.Instances += ps.Instances
			if ps.Dim > 0 {
				st.Dim = ps.Dim
			}
			st.IndexBytes += ps.IndexBytes
			st.DeadImages += ps.DeadImages
			st.DeadInstances += ps.DeadInstances
			st.PendingMutations += ps.PendingMutations
			st.WALMutations += ps.WALMutations
			st.Shards = append(st.Shards, ps.Shards...)
			st.Prune.Scans += ps.Prune.Scans
			st.Prune.Unarmed += ps.Prune.Unarmed
			st.Prune.Screened += ps.Prune.Screened
			st.Prune.Admitted += ps.Prune.Admitted
			st.Prune.Rejected += ps.Prune.Rejected
		}
		st.Partitions = append(st.Partitions, row)
	}
	// Training runs here, on the coordinator; the partitions only scan.
	st.Train = milret.ProcessTrainStats()
	if c.cache != nil {
		cs := c.cache.Stats()
		st.Cache = &milret.CacheStats{
			CapacityBytes: cs.CapacityBytes,
			Bytes:         cs.Bytes,
			Entries:       cs.Entries,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Coalesced:     cs.Coalesced,
			Bypassed:      cs.Bypassed,
			Evictions:     cs.Evictions,
			WarmLoaded:    cs.Loaded,
		}
	}
	return st
}

// --- server.Backend: image metadata ----------------------------------

// Images enumerates live images across all partitions, concatenated in
// topology order. Under "fail" an unreachable partition errors the
// listing; under "degrade" its images are silently absent.
func (c *Coordinator) Images() ([]server.ImageInfo, error) {
	infos := []server.ImageInfo{}
	for _, p := range c.parts {
		if !p.remote() {
			for _, id := range p.db.IDs() {
				label, _ := p.db.Label(id)
				infos = append(infos, server.ImageInfo{ID: id, Label: label})
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.topo.RPCTimeout())
		entries, err := p.cli.List(ctx)
		cancel()
		if err != nil {
			p.note(false, err)
			if c.topo.PartialPolicy() == PartialFail {
				return nil, err
			}
			continue
		}
		p.note(true, nil)
		for _, e := range entries {
			infos = append(infos, server.ImageInfo{ID: e.ID, Label: e.Label})
		}
	}
	return infos, nil
}

// Label resolves one image's metadata from its owning partition.
func (c *Coordinator) Label(id string) (string, bool, error) {
	p := c.owner(id)
	if !p.remote() {
		label, ok := p.db.Label(id)
		return label, ok, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.topo.RPCTimeout())
	defer cancel()
	resp, err := p.cli.Get(ctx, id)
	if err != nil {
		p.note(false, err)
		return "", false, err
	}
	p.note(true, nil)
	return resp.Label, resp.Found, nil
}

// --- server.Backend: mutations ---------------------------------------

// DeleteImage routes the delete to the image's owning partition. Remote
// acks mean the mutation is durable (the shard flushes before
// answering); local durability is the caller's Flush, exactly like a
// directly opened database.
func (c *Coordinator) DeleteImage(id string) error {
	return c.mutate(id, MutateRequest{Kind: MutDelete, ID: id})
}

// UpdateImage routes a relabel to the image's owning partition.
// Re-featurizing pixels through a coordinator is not supported — the
// image bytes would have to travel to the owner and retrain its index;
// send pixel updates to the owning shard's own /v1 surface instead.
func (c *Coordinator) UpdateImage(id, label string, img image.Image) error {
	if img != nil {
		return fmt.Errorf("remote: pixel updates are not supported through a coordinator; PUT to the owning shard directly")
	}
	return c.mutate(id, MutateRequest{Kind: MutLabel, ID: id, Label: label})
}

func (c *Coordinator) mutate(id string, req MutateRequest) error {
	p := c.owner(id)
	if !p.remote() {
		var err error
		switch req.Kind {
		case MutDelete:
			err = p.db.DeleteImage(id)
		case MutLabel:
			err = p.db.UpdateImage(id, req.Label, nil)
		}
		if err == nil {
			p.mu.Lock()
			p.images = p.db.Len()
			p.mu.Unlock()
		}
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.topo.RPCTimeout())
	defer cancel()
	resp, err := p.cli.Mutate(ctx, req)
	if err != nil {
		if !IsNotFound(err) {
			p.note(false, err)
		}
		return err
	}
	p.mu.Lock()
	p.healthy = true
	p.images = int(resp.Images)
	p.mu.Unlock()
	return nil
}

// Flush makes local partitions' acknowledged mutations durable. Remote
// partitions flushed before acking their mutations, so there is nothing
// left to wait for.
func (c *Coordinator) Flush() error {
	var first error
	for _, p := range c.parts {
		if p.db != nil {
			if err := p.db.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// --- server.Backend: training ----------------------------------------

// TrainCachedContext fetches each example bag from the partition that
// owns it and trains on the coordinator (through its own concept
// cache). Bags cross the wire as raw float bits, so the fetched dataset
// is bit-identical to the owners' and the trained concept equals one
// trained where the data lives. A missing example is a caller error; an
// unreachable owner is ErrUnavailable regardless of the partial-result
// policy — training on a partial example set would silently learn a
// different concept.
func (c *Coordinator) TrainCachedContext(ctx context.Context, positives, negatives []string, opts milret.TrainOptions) (*milret.Concept, milret.CacheOutcome, error) {
	pos, neg, err := c.fetchBags(ctx, positives, negatives)
	if err != nil {
		return nil, milret.CacheDisabled, err
	}
	return milret.TrainBags(ctx, c.cache, pos, neg, opts)
}

// TrainManyContext trains one concept per spec through the cache.
func (c *Coordinator) TrainManyContext(ctx context.Context, specs []milret.QuerySpec) ([]*milret.Concept, []milret.CacheOutcome, error) {
	concepts := make([]*milret.Concept, len(specs))
	outcomes := make([]milret.CacheOutcome, len(specs))
	for i, sp := range specs {
		concept, out, err := c.TrainCachedContext(ctx, sp.Positives, sp.Negatives, sp.Opts)
		if err != nil {
			return nil, nil, fmt.Errorf("milret: query %d: %w", i, err)
		}
		concepts[i] = concept
		outcomes[i] = out
	}
	return concepts, outcomes, nil
}

// fetchBags resolves a query's positive and negative example IDs to their
// bags in one concurrent round: the lookups of both lists are grouped by
// owning partition, every remote owner is asked once (one Fetch RPC per
// owner, all in flight together) while local owners are read inline, and
// the bags are handed back in input order. When several owners fail, the
// error of the first one in partition order is reported, so a failure
// reads the same on every run.
func (c *Coordinator) fetchBags(ctx context.Context, positives, negatives []string) (pos, neg []milret.ExampleBag, err error) {
	groups := make([][]string, len(c.parts))
	for _, ids := range [][]string{positives, negatives} {
		for _, id := range ids {
			pi := retrieval.ShardIndexFor(id, len(c.parts))
			groups[pi] = append(groups[pi], id)
		}
	}
	fetched := make([][]milret.ExampleBag, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for pi, group := range groups {
		if len(group) == 0 {
			continue
		}
		p := c.parts[pi]
		if p.remote() {
			wg.Add(1)
			go func(pi int, p *partition, group []string) {
				defer wg.Done()
				fetched[pi], errs[pi] = p.fetch(ctx, group)
			}(pi, p, group)
			continue
		}
		for _, id := range group {
			eb, ok := p.db.ExampleBag(id)
			if !ok {
				errs[pi] = fmt.Errorf("milret: unknown example image %q", id)
				break
			}
			fetched[pi] = append(fetched[pi], eb)
		}
	}
	wg.Wait()
	found := make(map[string]milret.ExampleBag, len(positives)+len(negatives))
	for pi, bags := range fetched {
		if errs[pi] != nil {
			return nil, nil, errs[pi]
		}
		for _, eb := range bags {
			found[eb.ID] = eb
		}
	}
	inOrder := func(ids []string) []milret.ExampleBag {
		if len(ids) == 0 {
			return nil
		}
		out := make([]milret.ExampleBag, len(ids))
		for i, id := range ids {
			out[i] = found[id]
		}
		return out
	}
	return inOrder(positives), inOrder(negatives), nil
}

// fetch asks a remote partition for the bags of the IDs it owns.
func (p *partition) fetch(ctx context.Context, ids []string) ([]milret.ExampleBag, error) {
	bags, err := p.cli.Fetch(ctx, ids)
	if err != nil {
		p.note(false, err)
		return nil, err
	}
	p.note(true, nil)
	out := make([]milret.ExampleBag, len(bags))
	for i, b := range bags {
		if !b.Found {
			return nil, fmt.Errorf("milret: unknown example image %q", b.ID)
		}
		out[i] = milret.ExampleBag{ID: b.ID, Instances: b.Instances}
	}
	return out, nil
}

// --- server.Backend: retrieval ---------------------------------------

// partialAnswer applies the partial-result policy to a fan-out's
// failures: nil error means answer with what arrived (counting the
// degradation), non-nil means refuse.
func (c *Coordinator) partialAnswer(errs []error) error {
	var firstErr error
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		return nil
	}
	if c.topo.PartialPolicy() == PartialDegrade {
		c.degraded.Add(1)
		return nil
	}
	return firstErr
}

// mergeTopK concatenates per-partition result lists and keeps the
// global k best under the scan's own ordering (distance, then ID) —
// exactly the in-process cross-shard merge, so a distributed answer is
// bit-identical to a single-process one over the same data.
func mergeTopK(lists [][]milret.Result, k int) []milret.Result {
	var all []milret.Result
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if k >= 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Retrieve fans a top-k scan to every partition concurrently and merges
// the global k best. A shared cutoff links the scans: local partitions
// hold the live handle, remote requests carry its current value as a
// seed, and every remote response's k-th-best distance tightens it for
// whichever scans are still running. Staleness only weakens pruning —
// see the package comment for why this never changes the answer.
func (c *Coordinator) Retrieve(ctx context.Context, concept *milret.Concept, k int, exclude []string, recall float64) ([]milret.Result, error) {
	shared := index.NewCutoff()
	geo := Geometry{Point: concept.Point(), Weights: concept.Weights()}
	lists := make([][]milret.Result, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			if !p.remote() {
				lists[i] = p.db.RetrieveExcluding(concept, k, exclude,
					milret.WithRecall(recall), milret.WithSharedCutoff(shared))
				return
			}
			resp, err := p.cli.TopK(ctx, TopKRequest{
				K:       k,
				Recall:  recall,
				Seed:    shared.Load(),
				Concept: geo,
				Exclude: exclude,
			})
			if err != nil {
				p.note(false, err)
				errs[i] = err
				return
			}
			p.note(true, nil)
			shared.Tighten(resp.Cutoff)
			lists[i] = resp.Results
		}(i, p)
	}
	wg.Wait()
	if err := c.partialAnswer(errs); err != nil {
		return nil, err
	}
	return mergeTopK(lists, k), nil
}

// RetrieveBatch fans a multi-concept scan to every partition and merges
// each concept's lists independently.
func (c *Coordinator) RetrieveBatch(ctx context.Context, concepts []*milret.Concept, k int, exclude []string, recall float64) ([][]milret.Result, error) {
	if len(concepts) == 0 {
		return nil, nil
	}
	geos := make([]Geometry, len(concepts))
	for i, concept := range concepts {
		geos[i] = Geometry{Point: concept.Point(), Weights: concept.Weights()}
	}
	perPart := make([][][]milret.Result, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			if !p.remote() {
				lists, err := p.db.RetrieveMany(concepts, k, exclude, milret.WithRecall(recall))
				if err != nil {
					errs[i] = err
					return
				}
				perPart[i] = lists
				return
			}
			resp, err := p.cli.MultiTopK(ctx, MultiTopKRequest{
				K:        k,
				Recall:   recall,
				Concepts: geos,
				Exclude:  exclude,
			})
			if err != nil {
				p.note(false, err)
				errs[i] = err
				return
			}
			p.note(true, nil)
			perPart[i] = resp.Lists
		}(i, p)
	}
	wg.Wait()
	if err := c.partialAnswer(errs); err != nil {
		return nil, err
	}
	out := make([][]milret.Result, len(concepts))
	for ci := range concepts {
		lists := make([][]milret.Result, 0, len(c.parts))
		for pi := range c.parts {
			if perPart[pi] != nil && ci < len(perPart[pi]) {
				lists = append(lists, perPart[pi][ci])
			}
		}
		out[ci] = mergeTopK(lists, k)
	}
	return out, nil
}

// RankAll ranks every live image against the concept: the exhaustive
// per-partition rankings merged under the same (distance, ID) order.
// Unlike Retrieve there is no cutoff to share — every partition scores
// everything — so the merge is a plain ordered concatenation.
func (c *Coordinator) RankAll(ctx context.Context, concept *milret.Concept, exclude []string) ([]milret.Result, error) {
	geo := Geometry{Point: concept.Point(), Weights: concept.Weights()}
	lists := make([][]milret.Result, len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for i, p := range c.parts {
		wg.Add(1)
		go func(i int, p *partition) {
			defer wg.Done()
			if !p.remote() {
				lists[i] = p.db.RankAllExcluding(concept, exclude)
				return
			}
			results, err := p.cli.Rank(ctx, RankRequest{Concept: geo, Exclude: exclude})
			if err != nil {
				p.note(false, err)
				errs[i] = err
				return
			}
			p.note(true, nil)
			lists[i] = results
		}(i, p)
	}
	wg.Wait()
	if err := c.partialAnswer(errs); err != nil {
		return nil, err
	}
	return mergeTopK(lists, -1), nil
}
