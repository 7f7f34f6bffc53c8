// Package fixture seeds one violation per milret analyzer; the e2e
// test asserts that milretlint surfaces each of them when driven
// through `go vet -vettool`, and that plain `go vet` reports BadCount.
package fixture

import (
	"math"
	"os"
	"sync"
	"sync/atomic"
)

type shard struct {
	mu sync.Mutex

	// milret:guarded-by mu
	items []int

	hits atomic.Uint64
}

// BadAdd mutates a guarded field without the lock (guardcheck).
func (s *shard) BadAdd(v int) {
	s.items = append(s.items, v)
}

// BadCount copies an atomic wrapper by value (go vet's copylocks).
func (s *shard) BadCount() atomic.Uint64 {
	return s.hits
}

// BadSave hand-rolls a rename with no fsync discipline (durably).
func BadSave(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// BadPublish claims the audited idiom but skips both fsyncs (durably).
//
// milret:atomic-rename
func BadPublish(tmp *os.File, path string) error {
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// BadKernel fuses rounding inside a kernel (kernelpure).
//
// milret:kernel
func BadKernel(a, b, c float64) float64 {
	return math.FMA(a, b, c)
}
