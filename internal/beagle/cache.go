package beagle

import "container/list"

// pmatCache is a bounded LRU cache of per-branch-length transition
// state keyed by branch length. Branch lengths are continuous — the
// golden-section branch optimizer probes fresh values every generation —
// so without genuine recency-based eviction the cache either grows
// without bound or (as the previous wholesale-reset policy did) dumps
// the hot working set of one tree's branch lengths together with the
// cold optimizer probes. LRU keeps the resident set exactly at the
// lengths the search is actively re-evaluating.
//
// Evicted entries donate their backing buffer to a free list, so at
// steady state a cache miss costs only the matrix exponentials — no
// allocation. Entries shared with another engine (WarmStart) are
// exempt: their buffers may still be read concurrently elsewhere.
type pmatCache struct {
	cap       int
	ll        *list.List // front = most recently used
	index     map[float64]*list.Element
	evictions int
	recycled  int // misses served from the free list instead of make
	free      [][]float64
}

// pmatEntry is one cached unit of per-branch-length state: the
// flattened per-category transition matrices plus the tip-column
// tables derived from them (see tips.go). Both live in one backing
// slice so the whole entry recycles as a unit. Entries are immutable
// once published, which is what makes WarmStart sharing race-free.
type pmatEntry struct {
	length float64
	data   []float64 // backing storage: mats followed by tips
	mats   []float64 // data[:C*S*S], category-major S×S matrices
	tips   []float64 // data[C*S*S:], tip columns (see buildTipTables)
	shared bool      // visible to another engine; never recycle data
}

// pmatMinCap is the smallest permitted capacity: the fused binary
// kernel reads two entries simultaneously, so at least both must stay
// resident between their fetches.
const pmatMinCap = 2

func newPmatCache(capacity int) *pmatCache {
	if capacity < pmatMinCap {
		capacity = pmatMinCap
	}
	return &pmatCache{
		cap:   capacity,
		ll:    list.New(),
		index: make(map[float64]*list.Element, capacity),
	}
}

// get returns the cached entry for a branch length and refreshes its
// recency.
func (c *pmatCache) get(length float64) (*pmatEntry, bool) {
	el, ok := c.index[length]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*pmatEntry), true
}

// buffer returns a zero-garbage backing slice of the requested size,
// recycled from an evicted entry when one of the right shape is
// available.
func (c *pmatCache) buffer(size int) []float64 {
	for k := len(c.free); k > 0; k-- {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		if len(b) == size {
			c.recycled++
			return b
		}
		// Wrong shape (stale after a category-count change): drop it.
	}
	return make([]float64, size)
}

// put inserts an entry, evicting the least recently used entries past
// the capacity.
func (c *pmatCache) put(e *pmatEntry) {
	if el, ok := c.index[e.length]; ok {
		c.ll.MoveToFront(el)
		el.Value = e
		return
	}
	c.index[e.length] = c.ll.PushFront(e)
	c.trim()
}

// trim evicts from the cold end until the cache fits its capacity,
// returning each unshared buffer to the free list.
func (c *pmatCache) trim() {
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		e := back.Value.(*pmatEntry)
		delete(c.index, e.length)
		c.evictions++
		if !e.shared && len(c.free) < c.cap {
			c.free = append(c.free, e.data)
		}
	}
}

// reset empties the cache and the free list. Called when the model or
// rate mixture changes: every cached matrix is an exponential of the
// old rate matrix, none survives a model swap, and the buffer shape
// may have changed with the category count.
func (c *pmatCache) reset() {
	c.ll.Init()
	c.index = make(map[float64]*list.Element, c.cap)
	c.free = nil
}

// size returns the number of resident entries.
func (c *pmatCache) size() int { return c.ll.Len() }

// shareInto publishes every entry of c into dst (skipping lengths dst
// already has), marking the entries shared on both sides so neither
// cache ever recycles a buffer the other may read. Iterating from the
// cold end preserves c's recency order in dst. Both caches remain
// independent afterward — only the immutable float data is shared.
func (c *pmatCache) shareInto(dst *pmatCache) {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*pmatEntry)
		if _, ok := dst.index[e.length]; ok {
			continue
		}
		e.shared = true
		dst.index[e.length] = dst.ll.PushFront(&pmatEntry{
			length: e.length,
			data:   e.data,
			mats:   e.mats,
			tips:   e.tips,
			shared: true,
		})
		dst.trim()
	}
}
