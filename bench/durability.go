package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"

	"milret"
	"milret/internal/server"
	"milret/internal/store"
)

// copyTree copies the regular files of src into dst (one level: a store
// directory is flat). It reads the bytes as they sit on disk — nothing is
// flushed or closed on the live side first.
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// snapshotStore copies the live store directory, exactly as a crash
// would leave it, into dir/<name> and returns the copied store path.
func (r *runner) snapshotStore(name string) (string, error) {
	dst := filepath.Join(r.w.dir, name)
	if err := copyTree(r.w.storeDir(), dst); err != nil {
		return "", fmt.Errorf("copy store: %w", err)
	}
	return filepath.Join(dst, filepath.Base(r.w.storePath)), nil
}

// verifyDurability is mixed_rw's restart check. The live database is
// neither flushed nor closed: whatever the handlers made durable before
// acknowledging is all a restart gets. A reopened copy must show every
// acknowledged label and pixel mutation, and must answer every primed
// query as a cache hit served from the sidecar with the live server's
// answers.
func (r *runner) verifyDurability(copyPath string) error {
	db, err := milret.LoadDatabase(copyPath, milret.Options{
		ConceptCacheMB:   cacheMB,
		ConceptCacheFile: store.CacheSidecarPath(copyPath),
	})
	if err != nil {
		return fmt.Errorf("durability: reopen copy: %w", err)
	}
	defer db.Close()

	r.ackMu.Lock()
	acked := make(map[string]string, len(r.acked))
	for id, label := range r.acked {
		acked[id] = label
	}
	r.ackMu.Unlock()
	for id, want := range acked {
		got, ok := db.Label(id)
		if !ok || got != want {
			return fmt.Errorf("durability: %s has label %q (present=%v) after restart, acknowledged %q", id, got, ok, want)
		}
	}
	for _, it := range r.w.pool {
		reopened, ok := db.ExampleBag(it.ID)
		want := r.w.ingested[it.ID].Instances
		same := ok && len(reopened.Instances) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = slices.Equal(reopened.Instances[i], []float64(want[i]))
		}
		if !same {
			return fmt.Errorf("durability: ingested pixels of %s not visible after restart", it.ID)
		}
	}

	srv := httptest.NewServer(server.New(db))
	defer srv.Close()
	cli := newHTTPClient(srv.URL, 1)
	defer cli.close()
	for fp := range r.w.sets {
		status, body, _, _, err := cli.do(op{method: http.MethodPost, path: "/v1/query", body: r.sched.queries[fp]})
		if err == nil {
			_, err = checkQueryReply(status, body, queryExpect{cache: "hit", want: r.expected[fp]})
		}
		if err != nil {
			return fmt.Errorf("durability: fingerprint %d after restart: %w", fp, err)
		}
	}
	return nil
}
