package planner

import (
	"container/list"
	"strconv"
	"sync"
)

// Cache memoizes planning results, implementing the paper's Sec. 7.1
// suggestion that "it is trivially possible to centrally cache tables
// for common configurations that are frequently reused": cloud
// providers sell regularly sized VMs, so hosts keep re-planning the
// same handful of population shapes.
//
// The cache key is the exact (specs, options) input. Cached results
// are shared: callers must treat the returned Result and its Table as
// immutable, which every consumer in this repository does (the
// dispatcher only reads tables, and core.System re-maps into fresh
// tables).
//
// The cache is bounded twice over: by entry count and by an estimated
// byte budget, both enforced with LRU eviction — a churn soak that
// keeps minting fresh population shapes ages out the cold ones instead
// of growing without limit. It also carries a SliceCache, the per-core
// memo level below whole-problem hits.
type Cache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	order    *list.List // LRU: front = most recent
	hits     int64
	misses   int64
	evicted  int64
	slices   *SliceCache
}

type cacheEntry struct {
	key  string
	res  *Result
	size int64
}

// DefaultCacheBytes is the byte budget NewCache installs.
const DefaultCacheBytes = 64 << 20

// NewCache returns a cache holding at most max results (LRU eviction),
// within a DefaultCacheBytes estimated-footprint budget. max <= 0
// selects a default of 128.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{
		max:      max,
		maxBytes: DefaultCacheBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		slices:   NewSliceCache(0),
	}
}

// SetMaxBytes replaces the byte budget (<= 0 restores the default) and
// evicts immediately if the cache is already over it.
func (c *Cache) SetMaxBytes(n int64) {
	if n <= 0 {
		n = DefaultCacheBytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictLocked()
}

// SliceCache returns the per-core EDF simulation memo attached to this
// cache, for wiring into Options.Slices.
func (c *Cache) SliceCache() *SliceCache { return c.slices }

// CacheKey returns the canonical key for a planning input. Spec order
// matters (worst-fit tie-breaking is order-sensitive), so no sorting is
// applied, and so do the vCPU ids the table is written in. Every Options
// field is part of the key but Slices: a memo hit returns what a fresh
// simulation would, so it cannot change the produced table.
func CacheKey(specs []VCPUSpec, opts Options) string {
	return string(appendCacheKey(make([]byte, 0, 64+32*len(specs)), specs, opts))
}

// appendCacheKey appends the canonical key to buf. It is on the replan
// hot path (every flush of a cached system builds one): strconv appends
// into one buffer.
func appendCacheKey(buf []byte, specs []VCPUSpec, opts Options) []byte {
	buf = strconv.AppendInt(append(buf, 'c'), int64(opts.Cores), 10)
	buf = strconv.AppendInt(append(buf, ";t"...), opts.TableLength, 10)
	buf = strconv.AppendBool(append(buf, ";ds"...), opts.DisableSplitting)
	buf = strconv.AppendBool(append(buf, ";dc"...), opts.DisableClustering)
	buf = strconv.AppendBool(append(buf, ";ph"...), opts.Peephole)
	buf = append(buf, '|')
	pos, prev := positional(specs), -1
	for i, s := range specs {
		buf = append(buf, s.Name...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Util.Num, 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, s.Util.Den, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.LatencyGoal, 10)
		buf = append(buf, ',')
		if s.Capped {
			buf = append(buf, 't')
		} else {
			buf = append(buf, 'f')
		}
		if s.Class == BE {
			buf = append(buf, 'b')
		}
		// The ids, where they are not the previous spec's plus one: a
		// positionally numbered list keys as it always did.
		id := s.id(i, pos)
		if id != prev+1 {
			buf = strconv.AppendInt(append(buf, '#'), int64(id), 10)
		}
		prev = id
		buf = append(buf, ';')
	}
	return buf
}

// resultFootprint estimates a cached result's resident bytes: the
// dominant terms are the table's allocation lists, plus the task and
// guarantee slices. An estimate is enough — the
// budget exists to bound growth, not to account exactly.
func resultFootprint(key string, res *Result) int64 {
	const (
		allocSize     = 24
		taskSize      = 96 // incl. name header + typical payload
		guaranteeSize = 32
		vcpuInfoSize  = 64
		fixed         = 512
	)
	n := int64(fixed) + int64(len(key))
	if tbl := res.Table; tbl != nil {
		n += int64(len(tbl.VCPUs)) * vcpuInfoSize
		for i := range tbl.Cores {
			ct := &tbl.Cores[i]
			n += int64(len(ct.Allocs)) * allocSize
		}
	}
	n += int64(len(res.Tasks)) * taskSize
	n += int64(len(res.Guarantees)) * guaranteeSize
	for _, ts := range res.CoreTasks {
		n += int64(len(ts)) * taskSize
	}
	return n
}

// Plan returns the cached result for the input if one exists, planning
// and caching it otherwise; hit reports which. It is the caller's own
// lookup that hit is about, not the cache's global counters, so it is
// exact under concurrency. Errors are not cached.
func (c *Cache) Plan(specs []VCPUSpec, opts Options) (res *Result, hit bool, err error) {
	// The key is built in the workspace the plan would use, and looked up
	// as bytes: a hit makes no string at all.
	ws := getWorkspace(len(specs))
	defer putWorkspace(ws)
	ws.key = appendCacheKey(ws.key[:0], specs, opts)
	c.mu.Lock()
	if el, ok := c.entries[string(ws.key)]; ok {
		c.order.MoveToFront(el)
		c.hits++
		res = el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true, nil
	}
	c.misses++
	c.mu.Unlock()
	key := string(ws.key) // planning reuses ws.key for the slice memo

	// Plan outside the lock: planning can take milliseconds and
	// concurrent misses for different keys should proceed in parallel.
	res, err = planWith(ws, specs, opts, nil)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent miss beat us; keep the first result so callers
		// sharing the cache also share tables. Still a miss: this call
		// planned.
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res, false, nil
	}
	c.addLocked(key, res)
	return res, false, nil
}

// Add inserts an externally planned result for the given input, so
// callers that must time or instrument Plan directly can still publish
// the table for reuse. An existing entry for the key is kept (callers
// sharing the cache keep sharing one table); Add counts as neither hit
// nor miss. Only scratch results belong here: an incremental result's
// table depends on planning history, not just the key.
func (c *Cache) Add(specs []VCPUSpec, opts Options, res *Result) {
	key := CacheKey(specs, opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.addLocked(key, res)
}

// addLocked inserts and then enforces both bounds.
func (c *Cache) addLocked(key string, res *Result) {
	size := resultFootprint(key, res)
	el := c.order.PushFront(&cacheEntry{key: key, res: res, size: size})
	c.entries[key] = el
	c.bytes += size
	c.evictLocked()
}

// evictLocked drops LRU entries until both the count and byte bounds
// hold. At least one entry is always kept: a single over-budget result
// would otherwise thrash forever between insert and evict.
func (c *Cache) evictLocked() {
	for (c.order.Len() > c.max || c.bytes > c.maxBytes) && c.order.Len() > 1 {
		oldest := c.order.Back()
		ent := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.size
		c.evicted++
	}
}

// Stats returns the hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is the full counter set, including the attached slice
// cache's.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Slice     SliceCacheStats
}

// FullStats returns every counter the cache keeps.
func (c *Cache) FullStats() CacheStats {
	c.mu.Lock()
	st := CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: c.order.Len(), Bytes: c.bytes,
	}
	c.mu.Unlock()
	st.Slice = c.slices.Stats()
	return st
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
