package qcache

import (
	"context"
	"errors"
	"sync"
	"testing"

	"milret/internal/core"
)

// TestExportImportRoundTrip exports a populated cache and imports it into
// a fresh one: same entries, same recency order, WarmLoaded counted.
func TestExportImportRoundTrip(t *testing.T) {
	src := New(1 << 20)
	ccs := make([]*core.Concept, 4)
	for i := range ccs {
		ccs[i] = mkConcept(6, float64(i))
		if _, _, err := src.DoContext(context.Background(), mkKey(byte(i)), func() (*core.Concept, error) { return ccs[i], nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 so recency order differs from insertion order.
	if _, out, _ := src.DoContext(context.Background(), mkKey(1), nil); out != Hit {
		t.Fatalf("key 1 missing: %v", out)
	}

	exported := src.Export(0)
	if len(exported) != 4 {
		t.Fatalf("exported %d entries, want 4", len(exported))
	}
	// Hottest-first: 1 (touched last), then 3, 2, 0.
	wantOrder := []byte{1, 3, 2, 0}
	for i, w := range wantOrder {
		if exported[i].Key != mkKey(w) {
			t.Fatalf("export order[%d] = %v, want key %d", i, exported[i].Key[0], w)
		}
	}

	dst := New(1 << 20)
	if n := dst.Import(exported); n != 4 {
		t.Fatalf("imported %d entries, want 4", n)
	}
	st := dst.Stats()
	if st.Entries != 4 || st.WarmLoaded != 4 {
		t.Fatalf("after import: %+v", st)
	}
	for i := range ccs {
		got, ok := lookup(dst, mkKey(byte(i)))
		if !ok || got != ccs[i] {
			t.Fatalf("key %d: got %p ok=%v, want %p", i, got, ok, ccs[i])
		}
	}
	// Recency order survived the round trip: a re-export of a fresh import
	// matches.
	fresh := New(1 << 20)
	fresh.Import(exported)
	re := fresh.Export(0)
	for i := range exported {
		if re[i].Key != exported[i].Key {
			t.Fatalf("re-export order[%d] = %v, want %v", i, re[i].Key[0], exported[i].Key[0])
		}
	}
}

// TestExportBudget bounds the export: only the hottest prefix that fits is
// returned, and at least one entry always is.
func TestExportBudget(t *testing.T) {
	c := New(1 << 20)
	per := conceptBytes(mkConcept(6, 0))
	for i := 0; i < 5; i++ {
		cc := mkConcept(6, float64(i))
		c.DoContext(context.Background(), mkKey(byte(i)), func() (*core.Concept, error) { return cc, nil })
	}
	got := c.Export(2 * per)
	if len(got) != 2 {
		t.Fatalf("budget for 2 exported %d", len(got))
	}
	// Hottest two are the last inserted: 4 then 3.
	if got[0].Key != mkKey(4) || got[1].Key != mkKey(3) {
		t.Fatalf("budgeted export kept %v, %v — want hottest 4, 3", got[0].Key[0], got[1].Key[0])
	}
	// A budget smaller than any entry still exports the single hottest
	// entry rather than an empty snapshot.
	if got := c.Export(1); len(got) != 1 || got[0].Key != mkKey(4) {
		t.Fatalf("tiny budget exported %d entries", len(got))
	}
}

// TestImportHonorsBudgetAndExisting: imports evict like inserts, skip keys
// already present, and drop oversized or nil entries without touching the
// resident set.
func TestImportHonorsBudgetAndExisting(t *testing.T) {
	per := conceptBytes(mkConcept(6, 0))
	c := New(3 * per)
	resident := mkConcept(6, 99)
	c.DoContext(context.Background(), mkKey(7), func() (*core.Concept, error) { return resident, nil })

	entries := []SavedEntry{
		{Key: mkKey(1), Concept: mkConcept(6, 1)},            // hottest
		{Key: mkKey(7), Concept: mkConcept(6, 0)},            // already cached
		{Key: mkKey(2), Concept: mkConcept(6, 2)},            // coldest that fits
		{Key: mkKey(3), Concept: mkConcept(4*int(per)/8, 3)}, // oversized: skipped
		{Key: mkKey(4), Concept: nil},                        // nil: skipped
	}
	n := c.Import(entries)
	if n != 2 {
		t.Fatalf("imported %d, want 2 (keys 1 and 2)", n)
	}
	// The already-present key keeps its resident concept, not the snapshot's.
	if got, ok := lookup(c, mkKey(7)); !ok || got != resident {
		t.Fatal("import displaced or replaced an existing entry")
	}
	if _, ok := lookup(c, mkKey(1)); !ok {
		t.Fatal("hottest imported entry missing")
	}
	if _, ok := lookup(c, mkKey(2)); !ok {
		t.Fatal("fitting imported entry missing")
	}
	if _, ok := lookup(c, mkKey(3)); ok {
		t.Fatal("oversized entry was installed")
	}
	st := c.Stats()
	if st.Bytes > st.CapacityBytes || st.WarmLoaded != 2 {
		t.Fatalf("after import: %+v", st)
	}

	// Into a tighter cache, imports evict by LRU exactly like inserts and
	// never exceed the budget.
	tight := New(2 * per)
	if n := tight.Import(entries); n != 3 {
		t.Fatalf("tight import installed %d, want 3 (keys 2, 7, 1)", n)
	}
	if st := tight.Stats(); st.Entries != 2 || st.Bytes > st.CapacityBytes {
		t.Fatalf("tight import: %+v", st)
	}
	// The hottest entry must be among the survivors.
	if _, ok := lookup(tight, mkKey(1)); !ok {
		t.Fatal("tight import evicted the hottest entry")
	}
}

// TestOversizedInsertLeavesLRUIntact is the regression test for the
// insert-then-evict hazard: caching a concept larger than the entire byte
// budget must reject the newcomer without evicting a single resident
// entry.
func TestOversizedInsertLeavesLRUIntact(t *testing.T) {
	per := conceptBytes(mkConcept(6, 0))
	c := New(3 * per)
	for i := 0; i < 3; i++ {
		cc := mkConcept(6, float64(i))
		c.DoContext(context.Background(), mkKey(byte(i)), func() (*core.Concept, error) { return cc, nil })
	}
	before := c.Stats()
	if before.Entries != 3 {
		t.Fatalf("setup: %+v", before)
	}

	huge := mkConcept(6*int(per), 9) // far larger than the whole cache
	got, out, err := c.DoContext(context.Background(), mkKey(9), func() (*core.Concept, error) { return huge, nil })
	if err != nil || got != huge || out != Miss {
		t.Fatalf("oversized Do = (%p, %v, %v)", got, out, err)
	}
	after := c.Stats()
	if after.Entries != 3 || after.Evictions != before.Evictions {
		t.Fatalf("oversized insert disturbed the LRU: before %+v, after %+v", before, after)
	}
	for i := 0; i < 3; i++ {
		if _, ok := lookup(c, mkKey(byte(i))); !ok {
			t.Fatalf("resident entry %d evicted by an entry that could never fit", i)
		}
	}
}

// TestGenTracksContentNotRecency: Gen advances on inserts, imports
// and evictions, and stays put across hits and recency bumps — the signal
// a persister uses to skip rewriting an unchanged sidecar.
func TestGenTracksContentNotRecency(t *testing.T) {
	c := New(1 << 20)
	g0 := c.Gen()
	cc := mkConcept(4, 1)
	c.DoContext(context.Background(), mkKey(1), func() (*core.Concept, error) { return cc, nil })
	g1 := c.Gen()
	if g1 == g0 {
		t.Fatal("insert did not advance Gen")
	}
	c.DoContext(context.Background(), mkKey(1), nil) // hit
	if c.Gen() != g1 {
		t.Fatal("recency bump advanced Gen")
	}
	c.Import([]SavedEntry{{Key: mkKey(2), Concept: mkConcept(4, 2)}})
	if c.Gen() == g1 {
		t.Fatal("import did not advance Gen")
	}
}

// TestDoContextReleasesWaiter: a coalesced waiter whose context is
// cancelled mid-flight returns promptly with ctx.Err() while the leader
// finishes training and caches the result — the property that keeps
// server shutdown from deadlocking behind in-flight training.
func TestDoContextReleasesWaiter(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	want := mkConcept(4, 1)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.DoContext(context.Background(), mkKey(1), func() (*core.Concept, error) {
			close(entered)
			<-release
			return want, nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, out, err := c.DoContext(ctx, mkKey(1), nil)
		if out != Coalesced {
			err = errors.New("waiter outcome was not Coalesced")
		}
		waiter <- err
	}()

	// Cancel while the leader is still held open: the waiter must return
	// without waiting for the flight.
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	// The leader is unaffected: it lands, caches, and the next call hits.
	close(release)
	<-leaderDone
	got, out, err := c.DoContext(context.Background(), mkKey(1), nil)
	if err != nil || got != want || out != Hit {
		t.Fatalf("post-flight Do = (%p, %v, %v), want cached hit", got, out, err)
	}
}

// TestDoContextManyWaitersUnderCancel floods one flight with waiters and
// cancels them all: every waiter returns, none deadlocks, and the -race
// run doubles as the data-race assertion.
func TestDoContextManyWaitersUnderCancel(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.DoContext(context.Background(), mkKey(2), func() (*core.Concept, error) {
			close(entered)
			<-release
			return mkConcept(4, 1), nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.DoContext(ctx, mkKey(2), nil)
		}(i)
	}
	cancel()
	wg.Wait() // must not hang: cancellation releases every waiter
	close(release)
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
}
