package core

import (
	"sync"
	"sync/atomic"

	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/index"
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
	s.potKey = ""
	s.rent = s.rent[:0]
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
// Category matchers after the first position are shared (see
// sharedOrRun), so the origin is never a candidate; the similarity
// function is fixed per SharedCache (the caller keeps one cache per
// similarity). suffix is empty for a run cut by the category's tree row.
// A run cut by a cost-to-go row (sharedPotentials) depends on the tree
// roots of every later position as well, and suffix names them in
// potKey's encoding.
type sharedKey struct {
	from   graph.VertexID
	cat    taxonomy.CategoryID
	suffix string
}

// SharedCacheStats is a point-in-time snapshot of a SharedCache.
type SharedCacheStats struct {
	Hits    int64 // lookups served from the cache
	Misses  int64 // lookups that fell through to a fresh run
	Entries int   // current entry count
	Rows    int   // current cost-to-go row count
	Bytes   int64 // approximate resident bytes of the entries, rows and missed row keys
	Flushes int64 // times the cache was emptied by the byte cap
}

// sharedCounters are the monotone counters of a SharedCache and of every
// cache Next derives from it.
type sharedCounters struct {
	hits, misses, flushes atomic.Int64
}

// SharedCache caches modified-Dijkstra results across queries and across
// goroutines (the cross-query extension of the paper's §5.3.4 on-the-fly
// cache), together with the cost-to-go rows of ordered queries (see
// Searcher.sharedPotentials), each under the tuple of tree roots it
// depends on. An entry is a pure function of its key, the explored radius
// and the one dataset version the cache serves, and a row of its key and
// that version: the caller dedicates a cache to each version and starts
// the next version on Next, so an update leaves nothing to repair. All
// methods are safe for concurrent use.
//
// A row costs a sweep of the whole graph and pays only once several
// queries read it, so the cache builds one only for a suffix that recurs:
// the first query to miss a suffix leaves its key behind, and the queries
// that miss it pay rent there until the row is worth its sweep (see row
// and Searcher.sharedPotentials).
//
// Memory is bounded by an approximate byte cap over entries, rows and
// missed keys: when an insert would exceed it, the whole cache is flushed
// — a simple scheme whose worst case (periodic cold restarts) is still
// strictly better than no sharing.
type SharedCache struct {
	mu       sync.RWMutex
	entries  map[sharedKey]*cacheEntry
	rows     map[string]index.Row
	missed   map[string]int64 // row keys a query found absent, with the rent paid since
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
	return newSharedCache(maxBytes, new(sharedCounters))
}

func newSharedCache(maxBytes int64, counts *sharedCounters) *SharedCache {
	return &SharedCache{
		entries:  make(map[sharedKey]*cacheEntry),
		rows:     make(map[string]index.Row),
		missed:   make(map[string]int64),
		maxBytes: maxBytes,
		counts:   counts,
	}
}

// Next returns an empty cache for the next dataset version, with the same
// byte cap. It counts hits, misses and flushes into the receiver's
// counters, so the counters of a cache lineage only ever rise, whichever
// version a lookup ran against.
func (c *SharedCache) Next() *SharedCache {
	return newSharedCache(c.maxBytes, c.counts)
}

// Stats returns a snapshot of the cache counters.
func (c *SharedCache) Stats() SharedCacheStats {
	c.mu.RLock()
	entries, rows, bytes := len(c.entries), len(c.rows), c.bytes
	c.mu.RUnlock()
	return SharedCacheStats{
		Hits:    c.counts.hits.Load(),
		Misses:  c.counts.misses.Load(),
		Entries: entries,
		Rows:    rows,
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
// after publication, so readers holding an older entry stay correct. It
// first copies e's items to their exact length: a run grows them by
// append, and the spare capacity would be resident memory the byte cap
// never counts.
func (c *SharedCache) store(key sharedKey, e *cacheEntry) {
	e.items = append(make([]candidate, 0, len(e.items)), e.items...)
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
	c.makeRoomLocked(cost)
	c.entries[key] = e
	c.bytes += cost
}

// row returns the cost-to-go row resident under key or, without one, the
// rent the queries that missed key have paid for it (see payRent). The
// first miss records key at no rent.
func (c *SharedCache) row(key string) (row index.Row, rent int64) {
	c.mu.RLock()
	row = c.rows[key]
	rent, seen := c.missed[key]
	c.mu.RUnlock()
	if row != nil || seen {
		return row, rent
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row = c.rows[key]
	if rent, seen = c.missed[key]; row != nil || seen {
		return row, rent
	}
	cost := missBytes(key)
	c.makeRoomLocked(cost)
	c.missed[key] = 0
	c.bytes += cost
	return nil, 0
}

// payRent adds settled vertices to the rent of the missed row key: the
// work that a query which found no row there spent on the runs the row
// would have cut. A key built or flushed since keeps no rent.
func (c *SharedCache) payRent(key string, settled int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rent, ok := c.missed[key]; ok {
		c.missed[key] = rent + settled
	}
}

// admitsRow reports whether the byte cap can hold a row over n vertices at
// all. A row it cannot hold is never built.
func (c *SharedCache) admitsRow(n int) bool { return rowBytes(n) <= c.maxBytes }

// storeRow publishes row under key and returns the row resident there
// afterwards: the one already stored when another query built it first.
// A row is a pure function of its key and the dataset version, so the two
// are equal, and every query with that suffix reads the same row.
func (c *SharedCache) storeRow(key string, row index.Row) index.Row {
	cost := rowBytes(len(row))
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.rows[key]; ok {
		return old
	}
	if _, ok := c.missed[key]; ok {
		delete(c.missed, key)
		c.bytes -= missBytes(key)
	}
	c.makeRoomLocked(cost)
	c.rows[key] = row
	c.bytes += cost
	return row
}

// makeRoomLocked flushes every entry, row and missed key when cost more
// bytes would exceed the cap. Callers hold mu.
func (c *SharedCache) makeRoomLocked(cost int64) {
	if c.bytes+cost > c.maxBytes {
		c.entries = make(map[sharedKey]*cacheEntry)
		c.rows = make(map[string]index.Row)
		c.missed = make(map[string]int64)
		c.bytes = 0
		c.counts.flushes.Add(1)
	}
}

// entryBytes is the approximate resident size of a cache entry: a header
// plus one 40-byte candidate per item. The per-query PeakCacheBytes and
// the SharedCache byte cap both count with it.
func entryBytes(e *cacheEntry) int64 {
	return 48 + int64(len(e.items))*40
}

// rowBytes is what a cost-to-go row over n vertices counts against the
// SharedCache byte cap: one float32 per vertex.
func rowBytes(n int) int64 { return 4 * int64(n) }

// missBytes is what a missed row key counts against the SharedCache byte
// cap: its bytes plus a map slot's string header and bucket share.
func missBytes(key string) int64 { return 32 + int64(len(key)) }
