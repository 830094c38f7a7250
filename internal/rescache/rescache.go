// Package rescache is the content-addressed result cache behind
// allocd's service path: an LRU over immutable byte values keyed by
// cachekey digests, with singleflight collapse so N concurrent
// identical requests cost one allocation.
//
// The cache stores rendered response bodies rather than live result
// structures: bytes are immutable (a hit is returned by reference,
// never copied or mutated), byte-identical across hits by
// construction, and their size is the natural currency for the
// capacity bound. Errors are never cached — a failed fill leaves no
// entry, so the next request retries.
//
// Oversized values: a single value larger than the configured byte
// bound is rejected at store time without touching the LRU. The fill
// still succeeds and the caller gets its bytes; the value is simply
// not retained, and — the contract part — every already-resident
// entry survives the attempt. An oversized store never evicts
// anything except a stale smaller value stored under the same key.
//
// Singleflight semantics: the first requester of a missing key (the
// leader) runs the fill; requesters arriving while the fill is in
// flight wait for it and share the value (Outcome Shared). A waiter
// whose context expires stops waiting and returns the context error
// with Outcome Abandoned — it was never served, so it counts in the
// Abandoned counter, not in Shared. The leader keeps going — its
// result still lands in the cache for the next request. If the
// leader's fill fails, every waiter of that flight receives the
// leader's error, typed as the fill returned it.
//
// Aliases: a caller whose key is costly to derive (allocd's canonical
// key digests compiled IR) can name a resident entry by a second, cheap
// key with Alias and serve later requests through Lookup without
// deriving the costly one. An alias lives inside its entry: each entry
// holds at most maxAliases of them, and they leave the cache with the
// entry — on eviction and on an oversized refill. Lookup serves a hit
// exactly as Do does (the hit counter, the hit-latency histogram and a
// cache:lookup span); a Lookup that finds nothing counts nothing, so a
// request that goes on to Do still has exactly one outcome.
package rescache

import (
	"container/list"
	"context"
	"sync"
	"time"

	"regalloc/internal/cachekey"
	"regalloc/internal/obs"
	"regalloc/internal/reqtrace"
)

// Outcome classifies how a Do call was served.
type Outcome int

const (
	// Miss: this call ran the fill (it was the flight leader).
	Miss Outcome = iota
	// Hit: served from a stored entry.
	Hit
	// Shared: collapsed onto another call's in-flight fill.
	Shared
	// Abandoned: waited on another call's fill but gave up when its
	// own context expired; no value was served.
	Abandoned
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	case Abandoned:
		return "abandoned"
	default:
		return "miss"
	}
}

// maxAliases bounds the aliases one entry holds. An entry's aliases
// are differently written requests for the same canonical work
// (formatting and renaming variants of one program), so a few cover
// the variants a client mix repeats; a new alias past the bound
// replaces the entry's oldest.
const maxAliases = 4

type entry struct {
	key     cachekey.Key
	val     []byte
	aliases []cachekey.Key // oldest first, at most maxAliases
}

type flight struct {
	done chan struct{} // closed when the fill completes
	val  []byte
	err  error
}

// Cache is a bounded LRU of immutable byte values with singleflight
// fills. Safe for concurrent use. The zero value is not ready; use
// New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front: most recently used; values: *entry
	items      map[cachekey.Key]*list.Element
	aliases    map[cachekey.Key]*list.Element // alias -> its entry's element
	flights    map[cachekey.Key]*flight

	hits, misses, shared, abandoned, evictions int64
	hitLat, fillLat                            obs.LatencyHistogram
}

// New returns a cache bounded by maxEntries stored values and
// maxBytes stored value bytes (either 0: that bound is off; a value
// larger than maxBytes on its own is simply not stored).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[cachekey.Key]*list.Element),
		aliases:    make(map[cachekey.Key]*list.Element),
		flights:    make(map[cachekey.Key]*flight),
	}
}

// Do returns the value for key, filling it at most once across
// concurrent callers. The returned bytes are shared and must not be
// mutated. ctx bounds only this caller's wait: the leader's fill is
// never abandoned mid-run (its result is cached for whoever asks
// next), but a waiter whose ctx expires returns early with ctx's
// error.
func (c *Cache) Do(ctx context.Context, key cachekey.Key, fill func() ([]byte, error)) ([]byte, Outcome, error) {
	t0 := time.Now()
	rt, parent := reqtrace.FromContext(ctx)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		return c.hit(ctx, el, t0), Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
			c.mu.Lock()
			c.shared++
			c.mu.Unlock()
			rt.Record(parent, "cache:lookup", t0, time.Since(t0),
				reqtrace.Attr{Key: "outcome", Value: Shared.String()})
			return fl.val, Shared, fl.err
		case <-ctx.Done():
			// Not a share: this caller was never served. Counting it
			// as Shared (as the cache once did) inflated the hit rate
			// with lookups that returned an error, and hid timeout
			// storms behind a healthy-looking singleflight counter.
			c.mu.Lock()
			c.abandoned++
			c.mu.Unlock()
			rt.Record(parent, "cache:lookup", t0, time.Since(t0),
				reqtrace.Attr{Key: "outcome", Value: Abandoned.String()})
			return nil, Abandoned, ctx.Err()
		}
	}
	// Leader: publish the flight, fill outside the lock.
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.misses++
	c.mu.Unlock()
	lookup := rt.Record(parent, "cache:lookup", t0, time.Since(t0),
		reqtrace.Attr{Key: "outcome", Value: Miss.String()})

	tf := time.Now()
	val, err := fill()
	dur := time.Since(tf)
	if err == nil {
		rt.Record(lookup, "cache:fill", tf, dur)
	} else {
		rt.Record(lookup, "cache:fill", tf, dur,
			reqtrace.Attr{Key: "error", Value: err.Error()})
	}

	c.mu.Lock()
	c.fillLat.Observe(dur)
	delete(c.flights, key)
	if err == nil {
		c.store(key, val)
	}
	c.mu.Unlock()

	fl.val, fl.err = val, err
	close(fl.done)
	return val, Miss, err
}

// Lookup serves the entry alias names, if it is resident, as a hit;
// otherwise it returns false and counts nothing. The returned bytes are
// shared and must not be mutated.
func (c *Cache) Lookup(ctx context.Context, alias cachekey.Key) ([]byte, bool) {
	t0 := time.Now()
	c.mu.Lock()
	el, ok := c.aliases[alias]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	return c.hit(ctx, el, t0), true
}

// hit serves el, which the caller found under c.mu, and releases the
// lock: the entry becomes the most recently used, the hit is counted
// and timed from t0, and a cache:lookup span records it.
func (c *Cache) hit(ctx context.Context, el *list.Element, t0 time.Time) []byte {
	c.ll.MoveToFront(el)
	val := el.Value.(*entry).val
	c.hits++
	c.hitLat.Observe(time.Since(t0))
	c.mu.Unlock()
	rt, parent := reqtrace.FromContext(ctx)
	rt.Record(parent, "cache:lookup", t0, time.Since(t0),
		reqtrace.Attr{Key: "outcome", Value: Hit.String()})
	return val
}

// Alias makes alias a second name for key's entry, so that Lookup(alias)
// serves it. It does nothing when key is not resident (a fill too large
// to keep leaves nothing to name) or when alias already names an entry:
// an alias names one entry until that entry leaves the cache.
func (c *Cache) Alias(alias, key cachekey.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, taken := c.aliases[alias]; taken {
		return
	}
	e := el.Value.(*entry)
	if len(e.aliases) == maxAliases {
		delete(c.aliases, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, alias)
	c.aliases[alias] = el
}

// Get returns a stored value without filling (for tests and
// introspection).
func (c *Cache) Get(key cachekey.Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// store inserts under c.mu. A key raced to storage by two leaders
// (possible when a waiter-turned-retrier refills) keeps the newer
// value.
func (c *Cache) store(key cachekey.Key, val []byte) {
	// A value larger than the whole byte budget can never be resident,
	// so reject it before touching the LRU. Admitting it first and
	// evicting down (as the cache once did) flushed every resident
	// entry on the way to dropping the one value that could not stay.
	if c.maxBytes > 0 && int64(len(val)) > c.maxBytes {
		if el, ok := c.items[key]; ok {
			// An oversized refill of a stored key cannot keep the stale
			// bytes either.
			c.remove(el)
		}
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	// The new value fits the budget on its own, so eviction from the
	// back always terminates with at least the fresh entry resident.
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.evictOldest()
	}
}

func (c *Cache) evictOldest() {
	if el := c.ll.Back(); el != nil {
		c.remove(el)
	}
}

// remove drops el's entry and its aliases under c.mu.
func (c *Cache) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	for _, a := range e.aliases {
		delete(c.aliases, a)
	}
	c.bytes -= int64(len(e.val))
	c.evictions++
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the counters and capacity state.
func (c *Cache) Stats() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Shared:      c.shared,
		Abandoned:   c.abandoned,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		MaxEntries:  c.maxEntries,
		MaxBytes:    c.maxBytes,
		HitLatency:  c.hitLat,
		FillLatency: c.fillLat,
	}
}
