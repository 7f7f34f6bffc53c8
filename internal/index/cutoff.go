package index

import (
	"math"
	"sync/atomic"
)

// Cutoff is a monotonically tightening top-k distance bound: the minimum
// of every value published to it. Within one scan the workers publish
// their current k-th best distances. Any such value is the k-th smallest of
// a subset of the final candidate set, hence an upper bound on the final
// global k-th best — so pruning a bag whose distance strictly exceeds the
// bound can never drop a true top-k member.
//
// The same bound accumulates a scan split across processes: a distribution
// coordinator creates one Cutoff per query, sends its current value to
// each partition as PruneOpts.CutoffSeed, and tightens it with the
// k-th-best bound each partition's response reports. A stale or missing
// contribution only weakens pruning, never correctness.
//
// Distances are non-negative, so their float64 bit patterns order like the
// values and a CAS min loop on the raw bits suffices.
type Cutoff struct{ bits atomic.Uint64 }

// NewCutoff returns a fresh bound at +Inf (nothing pruned yet).
func NewCutoff() *Cutoff {
	c := &Cutoff{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the tightest bound published so far.
func (c *Cutoff) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Tighten lowers the bound to d if d is tighter. NaN is ignored: remote
// bounds are outside input, and a corrupt one must not poison the scan.
func (c *Cutoff) Tighten(d float64) {
	if math.IsNaN(d) {
		return
	}
	bits := math.Float64bits(d)
	for {
		cur := c.bits.Load()
		if bits >= cur || c.bits.CompareAndSwap(cur, bits) {
			return
		}
	}
}
