package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Partial-result policies (Topology.Partial).
const (
	// PartialFail answers queries only when every partition contributed:
	// a down partition turns queries into ErrUnavailable (HTTP 503).
	// The default — correct-or-loud.
	PartialFail = "fail"
	// PartialDegrade answers from the reachable partitions and counts
	// the degraded queries in /v1/stats. Results may silently miss the
	// down partitions' images.
	PartialDegrade = "degrade"
)

// PartitionSpec names one partition of a topology: the base URL of the
// `milret shard-serve` process that owns it (a bare "host:port" is taken
// as http).
type PartitionSpec struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Topology is the coordinator's configuration file (milret serve
// -topology): the ordered partition list plus fleet-wide tuning. The
// partition ORDER IS THE PLACEMENT: image IDs route to partition
// retrieval.ShardIndexFor(id, len(Partitions)), so the list must match
// the shard count and order the store was (re)sharded into — partition
// i holds shard i. Reordering or resizing the list without resharding
// strands every image on a partition that no longer owns it.
type Topology struct {
	Partitions []PartitionSpec `json:"partitions"`
	// Partial selects the partial-result policy: "fail" (default) or
	// "degrade".
	Partial string `json:"partial,omitempty"`
	// RPCTimeoutMS bounds each RPC attempt (default 5000).
	RPCTimeoutMS int `json:"rpc_timeout_ms,omitempty"`
	// Retries re-sends failed idempotent RPCs with exponential backoff
	// (default 0: an attempt is not repeated; mutations never retry).
	Retries int `json:"retries,omitempty"`
	// BackoffMS is the first retry's delay, doubling per attempt
	// (default 50).
	BackoffMS int `json:"backoff_ms,omitempty"`
	// HealthIntervalMS paces the background replica health probes
	// (default 2000).
	HealthIntervalMS int `json:"health_interval_ms,omitempty"`
}

// RPCTimeout returns the configured per-attempt bound.
func (t *Topology) RPCTimeout() time.Duration {
	if t.RPCTimeoutMS <= 0 {
		return DefaultRPCTimeout
	}
	return time.Duration(t.RPCTimeoutMS) * time.Millisecond
}

// Backoff returns the configured first-retry delay.
func (t *Topology) Backoff() time.Duration {
	if t.BackoffMS <= 0 {
		return DefaultBackoff
	}
	return time.Duration(t.BackoffMS) * time.Millisecond
}

// HealthInterval returns the configured probe period.
func (t *Topology) HealthInterval() time.Duration {
	if t.HealthIntervalMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(t.HealthIntervalMS) * time.Millisecond
}

// Validate checks structural invariants common to every consumer.
func (t *Topology) Validate() error {
	if len(t.Partitions) == 0 {
		return fmt.Errorf("remote: topology has no partitions")
	}
	seen := make(map[string]bool, len(t.Partitions))
	for i, p := range t.Partitions {
		if p.Name == "" {
			return fmt.Errorf("remote: partition %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("remote: duplicate partition name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Addr == "" {
			return fmt.Errorf("remote: partition %q has no addr", p.Name)
		}
	}
	switch t.Partial {
	case "", PartialFail, PartialDegrade:
	default:
		return fmt.Errorf("remote: unknown partial policy %q (want %q or %q)", t.Partial, PartialFail, PartialDegrade)
	}
	return nil
}

// PartialPolicy returns the effective policy with the default applied.
func (t *Topology) PartialPolicy() string {
	if t.Partial == "" {
		return PartialFail
	}
	return t.Partial
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("remote: read topology: %w", err)
	}
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("remote: parse topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &t, nil
}
