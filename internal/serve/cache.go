package serve

// Hot-key result cache. Serving traffic is heavily key-skewed (a few
// prompts, a few feature vectors dominate); a small LRU of recent results
// with a staleness bound absorbs the hottest keys before they reach the
// queue, which both cuts latency for the common case and removes load
// exactly where the Zipf head concentrates it. Entries are inserted when a
// replica serves a key; the cached value is the model prediction the
// fleet precomputed through the batched BatMul path (tierPredictions /
// batchPredict), so a hit returns bit-identically what the replica would
// have computed. The LRU is an entry array on an intrusive recency list —
// no map anywhere — so runs replay deterministically.

// CacheConfig tunes the fleet's hot-key result cache.
type CacheConfig struct {
	// Disabled turns the cache off (every request hits the queue).
	Disabled bool
	// Capacity is the max cached keys (default 256).
	Capacity int
	// TTLS bounds staleness: entries older than this are misses and are
	// evicted on contact (default 50 deadlines).
	TTLS float64
}

func (c *CacheConfig) defaults(deadlineS float64) {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.TTLS <= 0 {
		c.TTLS = 50 * deadlineS
	}
}

// cacheEntry is one slot of the cache's fixed entry array, linked into
// the recency list (or, once expired out, the free chain) by slot index.
type cacheEntry struct {
	key        int
	pred       int
	expires    float64
	prev, next int32 // recency neighbours toward head (MRU) / tail (LRU); -1 = none
}

// resultCache is a TTL'd LRU keyed by request key: a fixed array of
// capacity entries on an intrusive doubly linked recency list, plus a
// dense key-to-slot index over the fleet's key space. Both arrays are
// allocated at the first put, at full size, and never again, which keeps
// them out of the fleet's set-up.
type resultCache struct {
	capacity   int
	ttl        float64
	keys       int
	entries    []cacheEntry // grows to capacity (or the key count), then slots are reused
	slotOf     []int32      // key -> slot+1; 0 = not cached
	head, tail int32        // most / least recently used; -1 when empty
	freeHead   int32        // chain (through next) of slots emptied by expiry
	n          int          // linked entries
}

func newResultCache(cfg CacheConfig, deadlineS float64, keys int) *resultCache {
	cfg.defaults(deadlineS)
	return &resultCache{
		capacity: cfg.Capacity,
		ttl:      cfg.TTLS,
		keys:     keys,
		head:     -1,
		tail:     -1,
		freeHead: -1,
	}
}

// unlink takes slot s off the recency list.
func (c *resultCache) unlink(s int32) {
	e := &c.entries[s]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	c.n--
}

// pushFront links slot s in as most recently used.
func (c *resultCache) pushFront(s int32) {
	e := &c.entries[s]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
	c.n++
}

// get returns the cached prediction for key if present and fresh,
// promoting it to most-recently-used. Expired entries are evicted.
func (c *resultCache) get(key int, now float64) (int, bool) {
	if c.n == 0 { // nothing cached; the arrays may not exist yet
		return 0, false
	}
	s := c.slotOf[key] - 1
	if s < 0 {
		return 0, false
	}
	e := &c.entries[s]
	if now >= e.expires {
		c.unlink(s)
		c.slotOf[key] = 0
		e.next = c.freeHead
		c.freeHead = s
		return 0, false
	}
	if s != c.head {
		c.unlink(s)
		c.pushFront(s)
	}
	return e.pred, true
}

// put inserts (or refreshes) the key's result, evicting the
// least-recently-used entry when full.
func (c *resultCache) put(key, pred int, now float64) {
	if c.slotOf == nil {
		// No more entries than distinct keys can ever be live.
		c.entries = make([]cacheEntry, 0, min(c.capacity, c.keys))
		c.slotOf = make([]int32, c.keys)
	}
	if s := c.slotOf[key] - 1; s >= 0 {
		e := &c.entries[s]
		e.pred = pred
		e.expires = now + c.ttl
		if s != c.head {
			c.unlink(s)
			c.pushFront(s)
		}
		return
	}
	var s int32
	switch {
	case c.n >= c.capacity:
		s = c.tail
		c.unlink(s)
		c.slotOf[c.entries[s].key] = 0
	case c.freeHead >= 0:
		s = c.freeHead
		c.freeHead = c.entries[s].next
	default:
		s = int32(len(c.entries))
		c.entries = c.entries[:s+1]
	}
	c.entries[s] = cacheEntry{key: key, pred: pred, expires: now + c.ttl}
	c.pushFront(s)
	c.slotOf[key] = s + 1
}

// len reports live entries (expired ones may linger until touched).
func (c *resultCache) len() int { return c.n }
