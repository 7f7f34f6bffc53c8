package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"milret"
	"milret/internal/remote"
	"milret/internal/server"
	"milret/internal/store"
)

// stack is the system under test, assembled the way `milret serve` (or
// `milret coordinator` plus four `milret shard` processes) assembles it,
// behind one loopback listener the clients talk to.
type stack struct {
	front   *httptest.Server
	backend server.Backend
	// db is the directly opened database (nil behind a coordinator);
	// parts are distributed_fanout's partition databases.
	db     *milret.Database
	parts  []*milret.Database
	coord  *remote.Coordinator
	shards []*httptest.Server
}

// close tears the stack down without flushing anything the handlers did
// not already make durable: listeners first, then the coordinator, then
// the databases.
func (s *stack) close() error {
	var errs []error
	if s.front != nil {
		s.front.Close()
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, sh := range s.shards {
		sh.Close()
	}
	for _, db := range append(s.parts, s.db) {
		if db != nil {
			errs = append(errs, db.Close())
		}
	}
	*s = stack{} // closing twice is harmless
	return errors.Join(errs...)
}

// buildStack opens the workload's store and starts serving it. A non-nil
// tracer decorates every layer boundary the harness can reach from
// outside; nil builds exactly what the product builds (server.New).
func buildStack(w *world, t *tracer) (*stack, error) {
	s := &stack{}
	var err error
	switch w.name {
	case wlWarmScan:
		s.db, err = milret.LoadDatabase(w.storePath, milret.Options{ConceptCacheMB: cacheMB})
	case wlMixedRW:
		s.db, err = milret.LoadDatabase(w.storePath, milret.Options{
			ConceptCacheMB:   cacheMB,
			ConceptCacheFile: store.CacheSidecarPath(w.storePath),
		})
	case wlColdFeedback:
		s.db, err = milret.NewDatabase(milret.Options{ConceptCacheMB: cacheMB})
		for i := 0; err == nil && i < len(w.scenes.Items); i++ {
			it := w.scenes.Items[i]
			err = s.db.AddImage(it.ID, it.Label, it.Image)
		}
	case wlFanout:
		err = s.startPartitions(w, t)
	}
	if err != nil {
		_ = s.close() // the build error is the one worth reporting
		return nil, fmt.Errorf("%s: build stack: %w", w.name, err)
	}

	var handler http.Handler
	switch {
	case s.coord != nil && t == nil:
		s.backend = s.coord
		handler = server.NewBackend(s.coord)
	case s.coord != nil:
		s.backend = tracedBackend{Backend: s.coord, t: t}
		handler = tracedHandler(t, spanHandler, server.NewBackend(s.backend))
	case t == nil:
		s.backend = localBackend{s.db}
		handler = server.New(s.db)
	default:
		s.backend = tracedBackend{Backend: localBackend{s.db}, t: t}
		handler = tracedHandler(t, spanHandler, server.NewBackend(s.backend))
	}
	s.front = httptest.NewServer(handler)

	if err := awaitVerified(s.backend.Verification); err != nil {
		_ = s.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return s, nil
}

// awaitVerified blocks until the background checksum of a fast-loaded
// block has finished: set-up time includes it, measured ops never race
// it.
func awaitVerified(verification func() (milret.VerifyStatus, error)) error {
	for {
		st, err := verification()
		switch st {
		case milret.VerifyCorrupt:
			return fmt.Errorf("store failed verification: %v", err)
		case milret.VerifyPending:
			time.Sleep(200 * time.Microsecond)
		default:
			return nil
		}
	}
}

// startPartitions serves each partition file behind its own shard
// server and points a coordinator at them.
func (s *stack) startPartitions(w *world, t *tracer) error {
	topo := &remote.Topology{
		// One probe at start-up, none during the run: a background probe
		// would put unparented shard-handler spans in the trace.
		HealthIntervalMS: int(time.Hour / time.Millisecond),
	}
	for i, path := range w.partPaths {
		db, err := milret.LoadDatabase(path, milret.Options{})
		if err != nil {
			return err
		}
		s.parts = append(s.parts, db)
		// The coordinator reads a partition's verification state from its
		// health probes, and the only probe of the run is the one at its
		// start-up: the partition must be verified by then.
		if err := awaitVerified(db.Verification); err != nil {
			return err
		}
		var h http.Handler = remote.NewShardServer(db)
		if t != nil {
			h = tracedHandler(t, spanShardHandler, h)
		}
		srv := httptest.NewServer(h)
		s.shards = append(s.shards, srv)
		topo.Partitions = append(topo.Partitions, remote.PartitionSpec{Name: fmt.Sprintf("p%d", i), Addr: srv.URL})
	}
	var err error
	s.coord, err = remote.NewCoordinator(topo, remote.CoordinatorOptions{ConceptCacheMB: cacheMB})
	return err
}
