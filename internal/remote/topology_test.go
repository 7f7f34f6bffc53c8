package remote

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadTopologyRejects walks the ways a topology file can be wrong;
// each must be refused with an error that names the problem.
func TestLoadTopologyRejects(t *testing.T) {
	for _, tc := range []struct {
		name, file, want string
	}{
		{"no partitions", `{"partitions": []}`, "no partitions"},
		{"duplicate name", `{"partitions": [{"name": "p0", "addr": "a:1"}, {"name": "p0", "addr": "a:2"}]}`, `duplicate partition name "p0"`},
		{"missing name", `{"partitions": [{"addr": "a:1"}]}`, "partition 0 has no name"},
		{"missing addr", `{"partitions": [{"name": "p0"}]}`, `partition "p0" has no addr`},
		{"unknown partial", `{"partitions": [{"name": "p0", "addr": "a:1"}], "partial": "maybe"}`, `unknown partial policy "maybe"`},
		{"retired path", `{"partitions": [{"name": "p0", "path": "/data/db.milret.shard0"}]}`, `unknown field "path"`},
		{"retired path beside addr", `{"partitions": [{"name": "p0", "addr": "a:1"}, {"name": "p1", "addr": "a:2", "path": ""}]}`, `unknown field "path"`},
		{"unknown field", `{"partitions": [{"name": "p0", "addr": "a:1"}], "replicas": 2}`, `unknown field "replicas"`},
		{"not JSON", `partitions: p0`, "parse topology"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "topology.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadTopology(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadTopology = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if _, err := LoadTopology(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("LoadTopology of a missing file succeeded")
	}
}

// TestLoadTopologyDefaults: a minimal file loads, and the tuning it left
// out reads back as the documented defaults.
func TestLoadTopologyDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(path, []byte(`{"partitions": [{"name": "p0", "addr": "127.0.0.1:8081"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.PartialPolicy() != PartialFail || topo.RPCTimeout() != DefaultRPCTimeout || topo.Backoff() != DefaultBackoff {
		t.Fatalf("defaults: partial %q, timeout %v, backoff %v", topo.PartialPolicy(), topo.RPCTimeout(), topo.Backoff())
	}
}
