package qcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"milret/internal/core"
	"milret/internal/mat"
)

func mkConcept(dim int, fill float64) *core.Concept {
	p := make(mat.Vector, dim)
	w := make(mat.Vector, dim)
	for i := range p {
		p[i] = fill
		w[i] = 1
	}
	return &core.Concept{Point: p, Weights: w}
}

func mkKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

// lookup returns the concept cached under key without training, and
// without touching its recency or the counters.
func lookup(c *Cache, key Key) (*core.Concept, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).c, true
}

func TestDoHitMiss(t *testing.T) {
	c := New(1 << 20)
	want := mkConcept(8, 1)
	calls := 0
	train := func() (*core.Concept, error) { calls++; return want, nil }

	got, out, err := c.DoContext(context.Background(), mkKey(1), train)
	if err != nil || got != want || out != Miss {
		t.Fatalf("first Do = (%p, %v, %v), want (%p, miss, nil)", got, out, err, want)
	}
	got, out, err = c.DoContext(context.Background(), mkKey(1), train)
	if err != nil || got != want || out != Hit {
		t.Fatalf("second Do = (%p, %v, %v), want (%p, hit, nil)", got, out, err, want)
	}
	if calls != 1 {
		t.Fatalf("train ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != conceptBytes(want) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEvictionUnderMemoryBound fills the cache past its byte budget and
// checks the cold end is evicted, the hot end survives, and the byte
// estimate never exceeds the bound.
func TestEvictionUnderMemoryBound(t *testing.T) {
	dim := 16
	per := conceptBytes(mkConcept(dim, 0))
	c := New(2 * per) // room for exactly two entries

	for i := 0; i < 3; i++ {
		cc := mkConcept(dim, float64(i))
		if _, _, err := c.DoContext(context.Background(), mkKey(byte(i)), func() (*core.Concept, error) { return cc, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts into a 2-entry cache: %+v", st)
	}
	if st.Bytes > st.CapacityBytes {
		t.Fatalf("bytes %d exceed capacity %d", st.Bytes, st.CapacityBytes)
	}
	if _, ok := lookup(c, mkKey(0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, b := range []byte{1, 2} {
		if _, ok := lookup(c, mkKey(b)); !ok {
			t.Fatalf("entry %d evicted, want retained", b)
		}
	}

	// LRU order, not insertion order: touch 1, insert 3 — 2 must go.
	if _, out, _ := c.DoContext(context.Background(), mkKey(1), nil); out != Hit {
		t.Fatalf("entry 1 missing: %v", out)
	}
	cc := mkConcept(dim, 3)
	if _, _, err := c.DoContext(context.Background(), mkKey(3), func() (*core.Concept, error) { return cc, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookup(c, mkKey(2)); ok {
		t.Fatal("least-recently-used entry 2 survived")
	}
	if _, ok := lookup(c, mkKey(1)); !ok {
		t.Fatal("recently-used entry 1 evicted")
	}
}

func TestOversizedConceptNotRetained(t *testing.T) {
	c := New(64) // smaller than any concept entry
	cc := mkConcept(32, 1)
	got, out, err := c.DoContext(context.Background(), mkKey(9), func() (*core.Concept, error) { return cc, nil })
	if err != nil || got != cc || out != Miss {
		t.Fatalf("Do = (%p, %v, %v)", got, out, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized concept was retained: %+v", st)
	}
}

// TestCoalescing launches many concurrent requests for one key: exactly
// one training run happens, and every caller observes the same concept.
func TestCoalescing(t *testing.T) {
	c := New(1 << 20)
	want := mkConcept(8, 2)
	var calls atomic.Int64
	release := make(chan struct{})
	train := func() (*core.Concept, error) {
		calls.Add(1)
		<-release // hold the flight open until all callers have piled in
		return want, nil
	}

	const n = 16
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	ccs := make([]*core.Concept, n)
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			ccs[i], outs[i], errs[i] = c.DoContext(context.Background(), mkKey(7), train)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("train ran %d times, want 1", got)
	}
	var misses, coalesced int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d error: %v", i, errs[i])
		}
		if ccs[i] != want {
			t.Fatalf("caller %d got a different concept", i)
		}
		switch outs[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		case Hit:
			// Legal: a caller that arrived after the leader landed.
		}
	}
	if misses != 1 {
		t.Fatalf("%d leaders, want exactly 1", misses)
	}
	if coalesced == 0 {
		t.Fatal("no caller coalesced despite the held-open flight")
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != int64(coalesced) {
		t.Fatalf("stats = %+v, want 1 miss / %d coalesced", st, coalesced)
	}
}

// TestCoalescedCallersShareLeaderError: a failed flight propagates the
// leader's error to every waiter, caches nothing, and the next request
// trains again.
func TestCoalescedCallersShareLeaderError(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("optimizer diverged")
	release := make(chan struct{})
	var calls atomic.Int64
	train := func() (*core.Concept, error) {
		calls.Add(1)
		<-release
		return nil, boom
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.DoContext(context.Background(), mkKey(3), train)
		}(i)
	}
	// Hold the leader until every caller has joined its flight (the
	// counters advance under the cache lock at the moment of joining): one
	// that arrived after the failed flight landed would rightly train again.
	for st := c.Stats(); st.Misses+st.Coalesced < n; st = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d error = %v, want the leader's %v", i, err, boom)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error outcome was cached: %+v", st)
	}
	// Errors are not cached: the next Do is a fresh flight.
	want := mkConcept(4, 1)
	got, out, err := c.DoContext(context.Background(), mkKey(3), func() (*core.Concept, error) { return want, nil })
	if err != nil || got != want || out != Miss {
		t.Fatalf("Do after failed flight = (%p, %v, %v), want fresh miss", got, out, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("failing train ran %d times, want 1", calls.Load())
	}
}

// TestLeaderPanicReleasesWaiters: a panicking training function must not
// wedge the key — waiters get an error and the key stays usable.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.DoContext(context.Background(), mkKey(5), func() (*core.Concept, error) {
			close(entered)
			<-release
			panic("train exploded")
		})
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(context.Background(), mkKey(5), func() (*core.Concept, error) { return mkConcept(2, 0), nil })
		waiterErr <- err
	}()
	// The waiter may either coalesce onto the doomed flight (error) or, if
	// it arrives after the panic unwound, lead a fresh successful flight.
	close(release)
	if err := <-waiterErr; err != nil && !errors.Is(err, errTrainPanicked) {
		t.Fatalf("waiter error = %v", err)
	}
	// Either way the key must be live afterwards.
	want := mkConcept(2, 1)
	got, _, err := c.DoContext(context.Background(), mkKey(5), func() (*core.Concept, error) { return want, nil })
	if err != nil || got == nil {
		t.Fatalf("key wedged after panic: (%p, %v)", got, err)
	}
}

// TestConcurrentMixedUse hammers Do/Get/Export/Stats from many goroutines;
// the -race run is the assertion.
func TestConcurrentMixedUse(t *testing.T) {
	dim := 8
	c := New(4 * conceptBytes(mkConcept(dim, 0)))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := mkKey(byte(i % 13))
				switch {
				case i%29 == 0:
					c.Export(0)
				case i%7 == 0:
					lookup(c, key)
				case i%11 == 0:
					c.Stats()
				default:
					cc := mkConcept(dim, float64(g))
					if _, _, err := c.DoContext(context.Background(), key, func() (*core.Concept, error) { return cc, nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > st.CapacityBytes {
		t.Fatalf("bytes %d exceed capacity %d", st.Bytes, st.CapacityBytes)
	}
}

func BenchmarkDoHit(b *testing.B) {
	c := New(1 << 20)
	cc := mkConcept(100, 1)
	key := mkKey(1)
	c.DoContext(context.Background(), key, func() (*core.Concept, error) { return cc, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, _ := c.DoContext(context.Background(), key, nil); out != Hit {
			b.Fatal("miss")
		}
	}
}

func ExampleCache() {
	c := New(1 << 20)
	key := Key{1}
	trainings := 0
	for i := 0; i < 3; i++ {
		_, out, _ := c.DoContext(context.Background(), key, func() (*core.Concept, error) {
			trainings++
			return mkConcept(2, 1), nil
		})
		fmt.Println(out)
	}
	fmt.Println("trainings:", trainings)
	// Output:
	// miss
	// hit
	// hit
	// trainings: 1
}
