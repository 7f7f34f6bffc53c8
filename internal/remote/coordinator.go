package remote

import (
	"context"
	"errors"
	"fmt"
	"image"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"milret"
	"milret/internal/core"
	"milret/internal/index"
	"milret/internal/qcache"
	"milret/internal/retrieval"
	"milret/internal/server"
)

// partition is one topology slot at runtime: the client to its shard
// server plus the health row that every call through it maintains.
type partition struct {
	spec PartitionSpec
	cli  *Client

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

// note records a call's outcome. Only a transport failure marks the
// partition down: a shard-side verdict (*RemoteError) means the peer
// answered, so it counts as reachable like a success does. A recovery
// keeps the previous error string for postmortems; only a new failure
// overwrites it.
func (p *partition) note(err error) {
	down := errors.Is(err, milret.ErrUnavailable)
	p.mu.Lock()
	p.healthy = !down
	if down {
		p.lastErr = err.Error()
	}
	p.mu.Unlock()
}

func (p *partition) setImages(n int) {
	p.mu.Lock()
	p.images = n
	p.mu.Unlock()
}

func (p *partition) snapshot() (healthy bool, lastErr string, images int, verify milret.VerifyStatus) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy, p.lastErr, p.images, p.verify
}

// call is the one path an RPC takes to a partition: run fn against its
// client and fold the outcome into its health row.
func call[T any](p *partition, fn func(*Client) (T, error)) (T, error) {
	v, err := fn(p.cli)
	p.note(err)
	return v, err
}

// fanOut calls fn on every listed partition concurrently and returns the
// answers and errors parallel to parts; fn's int indexes parts.
func fanOut[T any](parts []*partition, fn func(int, *Client) (T, error)) ([]T, []error) {
	out := make([]T, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = call(p, func(cli *Client) (T, error) { return fn(i, cli) })
		}()
	}
	wg.Wait()
	return out, errs
}

// CoordinatorOptions tunes a coordinator beyond what the topology file
// carries (the file describes the fleet; these describe this process).
type CoordinatorOptions struct {
	// ConceptCacheMB sizes the coordinator's own concept cache (training
	// happens on the coordinator from fetched example bags); 0 disables
	// it.
	ConceptCacheMB int
}

// Coordinator fans queries across a topology of shard servers and merges
// their answers so the /v1 surface behaves like one database. It holds
// clients, not data, and implements server.Backend; see the package
// comment for the merge protocol's correctness argument.
type Coordinator struct {
	topo  *Topology
	parts []*partition
	cache *qcache.Cache

	degraded atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var _ server.Backend = (*Coordinator)(nil)

// NewCoordinator builds a client per partition, runs one synchronous
// health probe (so the first query sees real health state, not
// optimistic defaults), and starts the background probe loop. Call Close
// when done.
func NewCoordinator(topo *Topology, opts CoordinatorOptions) (*Coordinator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		topo: topo,
		stop: make(chan struct{}),
	}
	if opts.ConceptCacheMB > 0 {
		c.cache = qcache.New(int64(opts.ConceptCacheMB) << 20)
	}
	for _, spec := range topo.Partitions {
		c.parts = append(c.parts, &partition{
			spec:    spec,
			cli:     NewClient(spec.Addr, topo.RPCTimeout(), topo.Retries, topo.Backoff()),
			healthy: true,
		})
	}
	c.probeAll()
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Close stops the probe loop. Like a database's Close it tolerates a
// second and a concurrent call.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return nil
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
			c.probeAll()
		}
	}
}

// probeAll refreshes each partition's health, image count and
// verification state.
func (c *Coordinator) probeAll() {
	pongs, errs := fanOut(c.parts, func(_ int, cli *Client) (PingResponse, error) {
		return cli.Ping(context.Background())
	})
	for i, p := range c.parts {
		if errs[i] == nil {
			p.mu.Lock()
			p.images = int(pongs[i].Images)
			p.verify = milret.VerifyStatus(pongs[i].Verify)
			p.mu.Unlock()
		}
	}
}

// owner returns the partition that placement assigns id to.
func (c *Coordinator) owner(id string) *partition {
	return c.parts[retrieval.ShardIndexFor(id, len(c.parts))]
}

// rpcContext bounds the Backend calls that arrive without a context of
// their own (stats, listing, label lookup, mutations) by one RPC timeout
// whatever the client's retry budget.
func (c *Coordinator) rpcContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.topo.RPCTimeout())
}

// partial applies the partial-result policy to a fan-out's failures. A
// shard's verdict on the request is returned as is under either policy
// — the request is wrong, not the fleet. Outages are absorbed (and
// counted) under "degrade", so the caller answers with what arrived, and
// refused under "fail". Of each kind the first in partition order is
// reported, so a failure reads the same on every run.
func (c *Coordinator) partial(errs []error) error {
	var outage error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, milret.ErrUnavailable):
			return err
		case outage == nil:
			outage = err
		}
	}
	if outage != nil && c.topo.PartialPolicy() == PartialDegrade {
		c.degraded.Add(1)
		return nil
	}
	return outage
}

// unavailable tags a verdict the coordinator reaches without issuing an
// RPC (a partition the prober found down) with the sentinel behind the
// HTTP 503 mapping. Client errors already carry it.
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

// Stats merges the reachable partitions' stats trees (milret.Stats.Merge:
// shard rows concatenated in topology order, totals and scan counters
// summed), attaches the coordinator's own concept-cache and training
// counters — training runs here; the partitions only scan — and reports
// the per-partition health block. Stats never fails: an unreachable
// partition contributes only its health row.
func (c *Coordinator) Stats() milret.Stats {
	ctx, cancel := c.rpcContext()
	defer cancel()
	trees, errs := fanOut(c.parts, func(_ int, cli *Client) (milret.Stats, error) {
		return cli.Stats(ctx)
	})
	st := milret.Stats{
		Train:           core.TrainerStats(),
		PartialPolicy:   c.topo.PartialPolicy(),
		DegradedQueries: c.degraded.Load(),
	}
	for i, p := range c.parts {
		if errs[i] == nil {
			p.setImages(trees[i].Images)
			st.Merge(trees[i])
		}
		healthy, lastErr, images, _ := p.snapshot()
		st.Partitions = append(st.Partitions, milret.PartitionStats{
			Name:      p.spec.Name,
			Addr:      p.spec.Addr,
			Healthy:   healthy,
			LastError: lastErr,
			Images:    images,
		})
	}
	if c.cache != nil {
		cs := c.cache.Stats()
		st.Cache = &cs
	}
	return st
}

// --- server.Backend: image metadata ----------------------------------

// Images enumerates live images across all partitions, concatenated in
// topology order. Under "fail" an unreachable partition errors the
// listing; under "degrade" its images are absent and the listing counts
// as a degraded answer.
func (c *Coordinator) Images() ([]server.ImageInfo, error) {
	ctx, cancel := c.rpcContext()
	defer cancel()
	listings, errs := fanOut(c.parts, func(_ int, cli *Client) ([]ListEntry, error) {
		return cli.List(ctx)
	})
	if err := c.partial(errs); err != nil {
		return nil, err
	}
	infos := []server.ImageInfo{}
	for _, entries := range listings {
		for _, e := range entries {
			infos = append(infos, server.ImageInfo{ID: e.ID, Label: e.Label})
		}
	}
	return infos, nil
}

// Label resolves one image's metadata from its owning partition.
func (c *Coordinator) Label(id string) (string, bool, error) {
	ctx, cancel := c.rpcContext()
	defer cancel()
	resp, err := call(c.owner(id), func(cli *Client) (GetResponse, error) {
		return cli.Get(ctx, id)
	})
	return resp.Label, resp.Found, err
}

// --- server.Backend: mutations ---------------------------------------

// DeleteImage routes the delete to the image's owning partition. An ack
// means the mutation is durable: the shard flushes before answering.
func (c *Coordinator) DeleteImage(id string) error {
	return c.mutate(MutateRequest{Kind: MutDelete, ID: id})
}

// UpdateImage routes a relabel to the image's owning partition.
// Re-featurizing pixels through a coordinator is not supported — the
// image bytes would have to travel to the owner and retrain its index;
// send pixel updates to the owning shard's own /v1 surface instead.
func (c *Coordinator) UpdateImage(id, label string, img image.Image) error {
	if img != nil {
		return fmt.Errorf("remote: pixel updates are not supported through a coordinator; PUT to the owning shard directly")
	}
	return c.mutate(MutateRequest{Kind: MutLabel, ID: id, Label: label})
}

func (c *Coordinator) mutate(req MutateRequest) error {
	ctx, cancel := c.rpcContext()
	defer cancel()
	p := c.owner(req.ID)
	resp, err := call(p, func(cli *Client) (MutateResponse, error) {
		return cli.Mutate(ctx, req)
	})
	if err == nil {
		p.setImages(int(resp.Images))
	}
	return err
}

// Flush has nothing to wait for: every partition flushed before acking
// its mutations.
func (c *Coordinator) Flush() error { return nil }

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
// owning partition, every owner is asked once (one Fetch RPC per owner,
// all in flight together), and the bags are handed back in input order.
// When several owners fail, the error of the first one in partition order
// is reported, so a failure reads the same on every run.
func (c *Coordinator) fetchBags(ctx context.Context, positives, negatives []string) (pos, neg []milret.ExampleBag, err error) {
	groups := make([][]string, len(c.parts))
	for _, ids := range [][]string{positives, negatives} {
		for _, id := range ids {
			pi := retrieval.ShardIndexFor(id, len(c.parts))
			groups[pi] = append(groups[pi], id)
		}
	}
	var owners []*partition
	var asked [][]string
	for pi, group := range groups {
		if len(group) > 0 {
			owners = append(owners, c.parts[pi])
			asked = append(asked, group)
		}
	}
	fetched, errs := fanOut(owners, func(i int, cli *Client) ([]FetchedBag, error) {
		return cli.Fetch(ctx, asked[i])
	})
	found := make(map[string]milret.ExampleBag, len(positives)+len(negatives))
	for i, bags := range fetched {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		for _, b := range bags {
			if !b.Found {
				return nil, nil, fmt.Errorf("milret: unknown example image %q", b.ID)
			}
			found[b.ID] = milret.ExampleBag{ID: b.ID, Instances: b.Instances}
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

// --- server.Backend: retrieval ---------------------------------------

func geometry(c *milret.Concept) Geometry {
	return Geometry{Point: c.Point(), Weights: c.Weights()}
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
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Retrieve fans a top-k scan to every partition concurrently and merges
// the global k best. A cutoff links the scans: each request carries its
// current value as a seed, and every response's k-th-best distance
// tightens it for whichever requests have yet to leave. Staleness only
// weakens pruning — see the package comment for why this never changes
// the answer. recall is ignored (see server.Backend).
func (c *Coordinator) Retrieve(ctx context.Context, concept *milret.Concept, k int, exclude []string, _ float64) ([]milret.Result, error) {
	cutoff := index.NewCutoff()
	geo := geometry(concept)
	lists, errs := fanOut(c.parts, func(_ int, cli *Client) ([]milret.Result, error) {
		resp, err := cli.TopK(ctx, TopKRequest{
			K:       k,
			Seed:    cutoff.Load(),
			Concept: geo,
			Exclude: exclude,
		})
		if err != nil {
			return nil, err
		}
		cutoff.Tighten(resp.Cutoff)
		return resp.Results, nil
	})
	if err := c.partial(errs); err != nil {
		return nil, err
	}
	return mergeTopK(lists, k), nil
}

// RetrieveBatch fans a multi-concept scan to every partition and merges
// each concept's lists independently. recall is ignored (see
// server.Backend).
func (c *Coordinator) RetrieveBatch(ctx context.Context, concepts []*milret.Concept, k int, exclude []string, _ float64) ([][]milret.Result, error) {
	if len(concepts) == 0 {
		return nil, nil
	}
	req := MultiTopKRequest{K: k, Concepts: make([]Geometry, len(concepts)), Exclude: exclude}
	for i, concept := range concepts {
		req.Concepts[i] = geometry(concept)
	}
	perPart, errs := fanOut(c.parts, func(_ int, cli *Client) (MultiTopKResponse, error) {
		return cli.MultiTopK(ctx, req)
	})
	if err := c.partial(errs); err != nil {
		return nil, err
	}
	out := make([][]milret.Result, len(concepts))
	for ci := range concepts {
		lists := make([][]milret.Result, 0, len(c.parts))
		for _, resp := range perPart {
			if ci < len(resp.Lists) {
				lists = append(lists, resp.Lists[ci])
			}
		}
		out[ci] = mergeTopK(lists, k)
	}
	return out, nil
}
