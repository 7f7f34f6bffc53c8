package index

import "math"

// Cutoff is the scan workers' tightening top-k bound (see sharedCutoff for
// the correctness argument) as an accumulator for a scan split across
// processes: a distribution coordinator creates one Cutoff per query, sends
// its current value to each partition as PruneOpts.CutoffSeed, and tightens
// it with the k-th-best bound each partition's response reports. Because
// the bound only ever tightens toward the true global k-th best — and every
// published value is an upper bound on it — a stale or missing contribution
// only weakens pruning, never correctness.
type Cutoff struct{ c sharedCutoff }

// NewCutoff returns a fresh bound at +Inf (nothing pruned yet).
func NewCutoff() *Cutoff {
	c := &Cutoff{}
	c.c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the tightest bound published so far.
func (c *Cutoff) Load() float64 { return c.c.load() }

// Tighten lowers the bound to d if d is tighter. NaN is ignored (a
// corrupt remote bound must not poison the scan; the CAS-min loop would
// otherwise treat NaN's bit pattern as a huge value anyway, but being
// explicit costs nothing).
func (c *Cutoff) Tighten(d float64) {
	if math.IsNaN(d) {
		return
	}
	c.c.tighten(d)
}
