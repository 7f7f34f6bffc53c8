package milret

import (
	"context"
	"errors"
	"fmt"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/qcache"
)

// ErrUnavailable marks failures caused by an unreachable partition of a
// distributed topology rather than by the request itself: the query was
// well-formed, the data exists, but a replica that owns part of the
// answer could not be consulted (and the topology's partial-result
// policy forbids answering without it). Callers should retry later or
// against another coordinator; the HTTP layer maps it to 503 rather
// than 4xx so load balancers treat it as a serving failure.
var ErrUnavailable = errors.New("milret: partition unavailable")

// ExampleBag is one training example carried by value across a process
// boundary: the image ID plus its bag's instance rows. A distribution
// coordinator fetches these from the shard that owns the image and
// trains locally via TrainBags. Float64 values round-trip the wire as
// raw bits, so a bag reconstructed from an ExampleBag is bit-identical
// to the owner's — and therefore fingerprints identically in the
// concept cache and trains to an identical concept.
type ExampleBag struct {
	ID        string
	Instances [][]float64
}

// bag reconstitutes the mil-layer bag, validating what arrived off the
// wire (instance count, uniform dimensionality, finite values).
func (e ExampleBag) bag() (*mil.Bag, error) {
	b := &mil.Bag{ID: e.ID, Instances: make([]mat.Vector, len(e.Instances))}
	for i, row := range e.Instances {
		b.Instances[i] = mat.Vector(row)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("milret: example %q: %w", e.ID, err)
	}
	return b, nil
}

// ExampleBag exports one stored image's bag for cross-process training;
// ok is false when the ID is not live in this database. The instance
// rows alias the database's index, the one copy of every bag's rows —
// callers must treat them as read-only (the RPC layer serializes them
// immediately).
func (d *Database) ExampleBag(id string) (ExampleBag, bool) {
	it, ok := d.db.ByID(id)
	if !ok {
		return ExampleBag{}, false
	}
	rows := make([][]float64, len(it.Bag.Instances))
	for i, inst := range it.Bag.Instances {
		rows[i] = inst
	}
	return ExampleBag{ID: id, Instances: rows}, true
}

// TrainBags is TrainCachedContext for callers that hold example bags
// rather than a database that can resolve example IDs — the
// distribution coordinator, which fetches each example from the shard
// that owns it. cache may be nil (every call trains). Training is
// deterministic and the bags round-trip bit-identically, so a concept
// trained here equals one trained by a shard holding the same examples.
func TrainBags(ctx context.Context, cache *qcache.Cache, positives, negatives []ExampleBag, opts TrainOptions) (*Concept, CacheOutcome, error) {
	ds := &mil.Dataset{}
	for _, e := range positives {
		b, err := e.bag()
		if err != nil {
			return nil, CacheDisabled, err
		}
		ds.Positive = append(ds.Positive, b)
	}
	for _, e := range negatives {
		b, err := e.bag()
		if err != nil {
			return nil, CacheDisabled, err
		}
		ds.Negative = append(ds.Negative, b)
	}
	if err := ds.Validate(); err != nil {
		return nil, CacheDisabled, fmt.Errorf("milret: %w", err)
	}
	return trainDataset(ctx, cache, ds, opts)
}

// PartitionStats describes one partition of a distribution topology as
// seen by its coordinator — Stats.Partitions is nil for a directly
// opened database.
type PartitionStats struct {
	// Name is the partition's name from the topology file.
	Name string `json:"name"`
	// Addr is the base URL of the shard server that owns the partition.
	Addr string `json:"addr,omitempty"`
	// Healthy reports whether the last probe or RPC reached the shard
	// server; a request the shard refused still counts as reaching it.
	Healthy bool `json:"healthy"`
	// LastError is the most recent transport failure, kept after recovery
	// for postmortems; empty if the partition never failed.
	LastError string `json:"last_error,omitempty"`
	// Images is the partition's live image count at the last successful
	// probe or stats merge.
	Images int `json:"images"`
}
