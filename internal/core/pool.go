package core

import (
	"sync"
	"sync/atomic"

	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// SearcherPool recycles Searchers over one dataset so concurrent workloads
// reuse the expensive per-searcher workspaces (the graph-sized Dijkstra
// arrays, the modified Dijkstra's per-vertex blockers and the §5.3.3
// scratch) instead of allocating them per query. Get/Put are safe for concurrent use; the
// Searchers themselves remain single-goroutine objects between a Get and
// the matching Put.
type SearcherPool struct {
	d *dataset.Dataset
	p sync.Pool
	// inUse counts searchers currently checked out (the pool-occupancy
	// gauge): each one holds graph-sized workspaces, so this is also a
	// transient-memory signal.
	inUse atomic.Int64
}

// NewSearcherPool returns an empty pool over d.
func NewSearcherPool(d *dataset.Dataset) *SearcherPool {
	return &SearcherPool{d: d}
}

// Get returns a Searcher configured with sim and opts, reusing a pooled
// one when available.
func (p *SearcherPool) Get(sim taxonomy.Similarity, opts Options) *Searcher {
	p.inUse.Add(1)
	if s, ok := p.p.Get().(*Searcher); ok {
		s.Reconfigure(sim, opts)
		return s
	}
	return NewSearcher(p.d, sim, opts)
}

// Put returns s to the pool. The caller must not use s afterwards.
func (p *SearcherPool) Put(s *Searcher) {
	if s == nil {
		return
	}
	p.inUse.Add(-1)
	s.clearTransient()
	p.p.Put(s)
}

// InUse returns the number of searchers currently checked out of the
// pool — the occupancy gauge the metrics layer samples at scrape time.
func (p *SearcherPool) InUse() int64 { return p.inUse.Load() }

// Reconfigure repoints the searcher at a new similarity function and
// option set, keeping the reusable workspaces. The per-query state is
// reset at the start of every query, so this is all a pooled searcher
// needs between uses.
func (s *Searcher) Reconfigure(sim taxonomy.Similarity, opts Options) {
	s.sim = sim
	s.opts = opts
}

// clearTransient drops the per-query references so a pooled searcher does
// not pin routes, skylines or graph-sized tables while idle. The
// workspaces (ws, blockers, scr) are deliberately kept: reusing them is
// the point of pooling.
func (s *Searcher) clearTransient() {
	s.seq = nil
	s.scorer = route.Scorer{}
	s.sky = nil
	s.sky3 = nil
	s.cache = nil
	s.bounds = nil
	s.destDist = nil
	s.pot = nil
	s.stats = Stats{}
	s.opts.Shared = nil
	s.opts.Index = nil
	s.opts.Context = nil
	// Drop the explain state too: an idle searcher must not pin a
	// finished request's trace tree (the flight recorder may hold it for
	// a long time).
	s.span = nil
	s.legs = nil
	s.idxRows = indexRows{}
	// Drop the cancellation state (and its context reference): a cancelled
	// query must leave the pooled searcher indistinguishable from a fresh
	// one — the next query arms its own canceller via initCancel.
	s.cc = canceller{}
}

// sharedKey identifies one cacheable modified-Dijkstra run across queries.
// Unlike the per-query cacheKey, the position index cannot identify the
// requirement here — different queries place the same category at
// different positions — so the key carries the category itself. Only plain
// Category matchers are shared; the similarity function is fixed per
// SharedCache (the caller keeps one cache per similarity). The origin flag
// distinguishes position-0 runs, where the origin vertex is itself a
// usable candidate (see runMDijkstra).
type sharedKey struct {
	from   graph.VertexID
	cat    taxonomy.CategoryID
	origin bool
}

// SharedCacheStats is a point-in-time snapshot of a SharedCache.
type SharedCacheStats struct {
	Hits    int64 // lookups served from the cache
	Misses  int64 // lookups that fell through to a fresh run
	Entries int   // current entry count
	Bytes   int64 // approximate resident bytes of the entries
	Flushes int64 // times the cache was emptied by the byte cap
}

// sharedCounters are the monotone counters of a SharedCache and of every
// cache Next derives from it.
type sharedCounters struct {
	hits, misses, flushes atomic.Int64
}

// SharedCache caches modified-Dijkstra results across queries and across
// goroutines (the cross-query extension of the paper's §5.3.4 on-the-fly
// cache). An entry is a pure function of its key, the explored radius and
// the one dataset version the cache serves: the caller dedicates a cache
// to each version and starts the next version on Next. All methods are
// safe for concurrent use.
//
// Memory is bounded by an approximate byte cap: when an insert would
// exceed it, the whole cache is flushed — a simple scheme whose worst case
// (periodic cold restarts) is still strictly better than no sharing.
type SharedCache struct {
	mu       sync.RWMutex
	entries  map[sharedKey]*cacheEntry
	bytes    int64
	maxBytes int64
	counts   *sharedCounters
}

// DefaultSharedCacheBytes is the byte cap NewSharedCache applies when the
// caller passes 0.
const DefaultSharedCacheBytes = 64 << 20

// NewSharedCache returns an empty cache capped at maxBytes (0 means
// DefaultSharedCacheBytes).
func NewSharedCache(maxBytes int64) *SharedCache {
	if maxBytes <= 0 {
		maxBytes = DefaultSharedCacheBytes
	}
	return &SharedCache{entries: make(map[sharedKey]*cacheEntry), maxBytes: maxBytes, counts: new(sharedCounters)}
}

// Next returns an empty cache for the next dataset version, with the same
// byte cap. It counts hits, misses and flushes into the receiver's
// counters, so the counters of a cache lineage only ever rise, whichever
// version a lookup ran against.
func (c *SharedCache) Next() *SharedCache {
	return &SharedCache{entries: make(map[sharedKey]*cacheEntry), maxBytes: c.maxBytes, counts: c.counts}
}

// Stats returns a snapshot of the cache counters.
func (c *SharedCache) Stats() SharedCacheStats {
	c.mu.RLock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.RUnlock()
	return SharedCacheStats{
		Hits:    c.counts.hits.Load(),
		Misses:  c.counts.misses.Load(),
		Entries: entries,
		Bytes:   bytes,
		Flushes: c.counts.flushes.Load(),
	}
}

// lookup returns the cached entry for key when it covers radius.
func (c *SharedCache) lookup(key sharedKey, radius float64) *cacheEntry {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if ok && (e.complete || e.radius >= radius) {
		c.counts.hits.Add(1)
		return e
	}
	c.counts.misses.Add(1)
	return nil
}

// store publishes e under key. When two goroutines raced on the same key,
// whichever entry covers the larger radius wins. Entries are immutable
// after publication, so readers holding an older entry stay correct.
func (c *SharedCache) store(key sharedKey, e *cacheEntry) {
	cost := entryBytes(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		// Never admit an entry that alone busts the cap: flushing for it
		// would degenerate into a flush per store on its key. Any smaller
		// entry already cached for the key keeps serving smaller radii.
		return
	}
	if old, ok := c.entries[key]; ok {
		if old.complete || old.radius >= e.radius {
			return
		}
		c.bytes -= entryBytes(old)
		delete(c.entries, key)
	}
	if c.bytes+cost > c.maxBytes {
		c.entries = make(map[sharedKey]*cacheEntry)
		c.bytes = 0
		c.counts.flushes.Add(1)
	}
	c.entries[key] = e
	c.bytes += cost
}

// entryBytes is the approximate resident size of a cache entry: a header
// plus one 40-byte candidate per item. The per-query PeakCacheBytes and
// the SharedCache byte cap both count with it.
func entryBytes(e *cacheEntry) int64 {
	return 48 + int64(len(e.items))*40
}
