package rescache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regalloc/internal/cachekey"
	"regalloc/internal/reqtrace"
)

func key(s string) cachekey.Key {
	h := cachekey.New("test")
	h.Str(s)
	return h.Key()
}

func fillWith(b []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return b, nil }
}

func TestHitMissAndByteIdentity(t *testing.T) {
	c := New(8, 0)
	ctx := context.Background()

	v1, out, err := c.Do(ctx, key("a"), fillWith([]byte("alpha")))
	if err != nil || out != Miss || string(v1) != "alpha" {
		t.Fatalf("first Do: %q %v %v", v1, out, err)
	}
	v2, out, err := c.Do(ctx, key("a"), func() ([]byte, error) {
		t.Fatal("fill ran on a hit")
		return nil, nil
	})
	if err != nil || out != Hit {
		t.Fatalf("second Do: %v %v", out, err)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatalf("hit not byte-identical: %q vs %q", v1, v2)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Shared != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitLatency.Count != 1 || st.FillLatency.Count != 1 {
		t.Fatalf("latency counts = %d hit, %d fill", st.HitLatency.Count, st.FillLatency.Count)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(8, 0)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, key("a"), func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed fill left an entry")
	}
	v, out, err := c.Do(ctx, key("a"), fillWith([]byte("ok")))
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("retry after error: %q %v %v", v, out, err)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := New(2, 0)
	ctx := context.Background()
	c.Do(ctx, key("a"), fillWith([]byte("a")))
	c.Do(ctx, key("b"), fillWith([]byte("b")))
	c.Do(ctx, key("a"), fillWith(nil)) // touch a: b becomes oldest
	c.Do(ctx, key("c"), fillWith([]byte("c")))
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("LRU evicted the recently-touched entry")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(0, 10)
	ctx := context.Background()
	c.Do(ctx, key("a"), fillWith(make([]byte, 6)))
	c.Do(ctx, key("b"), fillWith(make([]byte, 6)))
	st := c.Stats()
	if st.Bytes > 10 {
		t.Fatalf("byte bound exceeded: %d", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no eviction under byte pressure")
	}
	// A single oversized value is not retained.
	c2 := New(0, 4)
	c2.Do(ctx, key("big"), fillWith(make([]byte, 100)))
	if c2.Stats().Bytes > 4 {
		t.Fatalf("oversized value retained: %+v", c2.Stats())
	}
}

// TestSingleflightCollapse is the core service guarantee: N
// concurrent identical requests run the fill exactly once, and
// every non-leader is accounted as shared or hit.
func TestSingleflightCollapse(t *testing.T) {
	c := New(8, 0)
	ctx := context.Background()
	const n = 16
	var fills int64
	var mu sync.Mutex
	gate := make(chan struct{})

	var wg sync.WaitGroup
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(ctx, key("hot"), func() ([]byte, error) {
				mu.Lock()
				fills++
				mu.Unlock()
				<-gate // hold every waiter in the same flight
				return []byte("value"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the goroutines queue up on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	for i, v := range vals {
		if string(v) != "value" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Shared != n-1 {
		t.Fatalf("stats = %+v: want 1 miss and %d hit+shared", st, n-1)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	c := New(8, 0)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Do(context.Background(), key("slow"), func() ([]byte, error) {
			<-gate
			return []byte("late"), nil
		})
	}()
	// Wait until the flight is published.
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, key("slow"), fillWith(nil))
	if !errors.Is(err, context.Canceled) || out != Abandoned {
		t.Fatalf("cancelled waiter: out=%v err=%v", out, err)
	}
	// The abandoned wait is its own counter: it was never served, so
	// it must not inflate Shared (and through it the hit rate).
	if st := c.Stats(); st.Abandoned != 1 || st.Shared != 0 {
		t.Fatalf("stats after abandoned wait = %+v", st)
	}
	// The leader is unaffected and its value lands for the next call.
	close(gate)
	<-leaderDone
	v, out, err := c.Do(context.Background(), key("slow"), fillWith(nil))
	if err != nil || out != Hit || string(v) != "late" {
		t.Fatalf("after leader completes: %q %v %v", v, out, err)
	}
}

// TestOversizedStoreLeavesCacheIntact is the regression for the
// LRU-flush bug: a value larger than the byte bound used to be
// admitted first and evicted down, which flushed every resident
// entry on the way to dropping the one value that could not stay.
func TestOversizedStoreLeavesCacheIntact(t *testing.T) {
	c := New(0, 32)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		c.Do(ctx, key(fmt.Sprintf("k%d", i)), fillWith(make([]byte, 4)))
	}
	if c.Len() != 8 {
		t.Fatalf("setup stored %d of 8 entries", c.Len())
	}
	// The fill still succeeds and the caller gets its bytes; only
	// retention is refused.
	v, out, err := c.Do(ctx, key("huge"), fillWith(make([]byte, 100)))
	if err != nil || out != Miss || len(v) != 100 {
		t.Fatalf("oversized fill: %d bytes, %v, %v", len(v), out, err)
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(key(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("entry k%d evicted by an oversized store", i)
		}
	}
	if st := c.Stats(); st.Entries != 8 || st.Bytes != 32 || st.Evictions != 0 {
		t.Fatalf("stats after oversized store = %+v", st)
	}
	// An oversized refill of a stored key cannot keep the stale bytes.
	c2 := New(0, 32)
	c2.Do(ctx, key("a"), fillWith(make([]byte, 4)))
	c2.store(key("a"), make([]byte, 100))
	if _, ok := c2.Get(key("a")); ok {
		t.Fatal("oversized refill left the stale smaller value resident")
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(64, 0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key(fmt.Sprintf("k%d", i%8))
			for j := 0; j < 50; j++ {
				v, _, err := c.Do(context.Background(), k, fillWith([]byte{byte(i % 8)}))
				if err != nil || v[0] != byte(i%8) {
					t.Errorf("k%d: %v %v", i%8, v, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Requests() != 32*50 {
		t.Fatalf("requests = %d", st.Requests())
	}
}

// checkAliases verifies the alias index against the entries: every
// alias names a resident entry that lists it, every listed alias is
// indexed, and no entry holds more than maxAliases.
func checkAliases(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	listed := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if len(e.aliases) > maxAliases {
			t.Fatalf("entry holds %d aliases, cap %d", len(e.aliases), maxAliases)
		}
		for _, a := range e.aliases {
			if c.aliases[a] != el {
				t.Fatal("an entry lists an alias the index does not map to it")
			}
		}
		listed += len(e.aliases)
	}
	if listed != len(c.aliases) {
		t.Fatalf("index holds %d aliases, entries list %d", len(c.aliases), listed)
	}
}

// TestAliasHitCountsOneHit: a Lookup through an alias is a hit in
// every counter and span, like a Do hit, and returns the entry's
// bytes; a Lookup that finds nothing counts nothing.
func TestAliasHitCountsOneHit(t *testing.T) {
	c := New(8, 0)
	ctx := context.Background()
	v, _, _ := c.Do(ctx, key("a"), fillWith([]byte("alpha")))
	if _, ok := c.Lookup(ctx, key("raw-a")); ok {
		t.Fatal("Lookup served an alias never recorded")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 || st.HitLatency.Count != 0 {
		t.Fatalf("a failed Lookup counted: %+v", st)
	}
	c.Alias(key("raw-a"), key("a"))

	rt := reqtrace.NewTrace(reqtrace.Mint())
	got, ok := c.Lookup(reqtrace.ContextWith(ctx, rt, 0), key("raw-a"))
	if !ok || !bytes.Equal(got, v) {
		t.Fatalf("Lookup = %q, %v; want %q", got, ok, v)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.HitLatency.Count != 1 || st.FillLatency.Count != 1 {
		t.Fatalf("stats after an alias hit = %+v", st)
	}
	spans, _ := rt.Snapshot()
	if len(spans) != 1 || spans[0].Name != "cache:lookup" ||
		len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (reqtrace.Attr{Key: "outcome", Value: "hit"}) {
		t.Fatalf("spans = %+v, want one cache:lookup with outcome=hit", spans)
	}
	checkAliases(t, c)
}

// TestAliasDiesWithEntry: an alias leaves the cache with its entry,
// on LRU eviction and on an oversized refill.
func TestAliasDiesWithEntry(t *testing.T) {
	ctx := context.Background()
	c := New(2, 0)
	c.Do(ctx, key("a"), fillWith([]byte("a")))
	c.Alias(key("raw-a"), key("a"))
	c.Do(ctx, key("b"), fillWith([]byte("b")))
	c.Do(ctx, key("c"), fillWith([]byte("c"))) // evicts a
	if _, ok := c.Lookup(ctx, key("raw-a")); ok {
		t.Fatal("alias outlived its evicted entry")
	}
	checkAliases(t, c)

	c2 := New(0, 32)
	c2.Do(ctx, key("a"), fillWith(make([]byte, 4)))
	c2.Alias(key("raw-a"), key("a"))
	c2.store(key("a"), make([]byte, 100))
	if _, ok := c2.Lookup(ctx, key("raw-a")); ok {
		t.Fatal("alias outlived its entry's oversized refill")
	}
	checkAliases(t, c2)
}

// TestAliasCap: an entry holds at most maxAliases aliases; a new one
// past the cap replaces the entry's oldest.
func TestAliasCap(t *testing.T) {
	ctx := context.Background()
	c := New(8, 0)
	c.Do(ctx, key("a"), fillWith([]byte("a")))
	const n = maxAliases + 2
	for i := 0; i < n; i++ {
		c.Alias(key(fmt.Sprintf("raw-%d", i)), key("a"))
	}
	checkAliases(t, c)
	if len(c.aliases) != maxAliases {
		t.Fatalf("%d aliases for one entry, cap %d", len(c.aliases), maxAliases)
	}
	for i := 0; i < n; i++ {
		_, ok := c.Lookup(ctx, key(fmt.Sprintf("raw-%d", i)))
		if want := i >= n-maxAliases; ok != want {
			t.Fatalf("alias %d served = %v, want %v", i, ok, want)
		}
	}
}

// TestAliasToAbsentKey: Alias names only resident entries — a key
// never stored, or a value too large to keep, gets no alias.
func TestAliasToAbsentKey(t *testing.T) {
	ctx := context.Background()
	c := New(8, 16)
	c.Alias(key("raw-x"), key("x"))
	c.Do(ctx, key("big"), fillWith(make([]byte, 100)))
	c.Alias(key("raw-big"), key("big"))
	for _, a := range []string{"raw-x", "raw-big"} {
		if _, ok := c.Lookup(ctx, key(a)); ok {
			t.Fatalf("%s served without a resident entry", a)
		}
	}
	if len(c.aliases) != 0 {
		t.Fatalf("index holds %d aliases", len(c.aliases))
	}
}

// TestConcurrentLookupAliasDo drives Lookup, Do and Alias from many
// goroutines over more keys than the cache holds, so aliases are made
// and evicted while others read them. Every served value must be its
// key's, every request has exactly one outcome, and the alias index
// stays consistent. Each worker stays on a key for four iterations,
// naming it by its two raw aliases in turn, so it reads back an alias
// it made two iterations before; then it moves on, and eight keys pass
// through four entries. So even when the workers run one after
// another, as they often do at GOMAXPROCS=1, aliases are both served
// and evicted. Run it with -race -count=10 -cpu 1,2.
func TestConcurrentLookupAliasDo(t *testing.T) {
	c := New(4, 0)
	const workers, iters, keys = 8, 200, 8
	var wg sync.WaitGroup
	var aliasHits atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				k := (w + i/4) % keys
				want := []byte{byte(k)}
				raw := key(fmt.Sprintf("raw-%d-%d", k, i%2))
				if v, ok := c.Lookup(ctx, raw); ok {
					if !bytes.Equal(v, want) {
						t.Errorf("alias of key %d served %v", k, v)
						return
					}
					aliasHits.Add(1)
					continue
				}
				v, _, err := c.Do(ctx, key(fmt.Sprint(k)), fillWith(want))
				if err != nil || !bytes.Equal(v, want) {
					t.Errorf("key %d: %v %v", k, v, err)
					return
				}
				c.Alias(raw, key(fmt.Sprint(k)))
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Requests() != workers*iters {
		t.Fatalf("requests = %d, want %d: %+v", st.Requests(), workers*iters, st)
	}
	if st.Evictions == 0 || st.Hits == 0 || aliasHits.Load() == 0 {
		t.Fatalf("no evictions or no alias hits (%d), so aliases were not both used and dropped: %+v", aliasHits.Load(), st)
	}
	checkAliases(t, c)
}
