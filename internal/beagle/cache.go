package beagle

// pmatCache is a bounded LRU cache of per-branch-length transition
// state. Branch lengths are continuous — the golden-section branch
// optimizer probes fresh values every generation — so without genuine
// recency-based eviction the cache either grows without bound or (as
// the previous wholesale-reset policy did) dumps the hot working set of
// one tree's branch lengths together with the cold optimizer probes.
// LRU keeps the resident set exactly at the lengths the search is
// actively re-evaluating.
//
// An edge ends in a leaf or in an internal node, and the kernels read
// different state for the two: tip-column tables for a leaf child, the
// per-category matrices for an internal one. The key is therefore
// (branch length, leaf edge?) and an entry holds only the half its kind
// of edge reads — a length that occurs on both kinds is two entries.
//
// The recency list is intrusive (prev/next on the entry, a sentinel in
// the cache), so a miss allocates the entry and nothing else. Evicted
// entries donate their backing buffer to a per-kind free list, so once
// the cache is full a miss allocates no float storage. Entries shared
// with another engine (WarmStart) are exempt: their buffers may still
// be read concurrently elsewhere.
type pmatCache struct {
	cap       int
	n         int
	root      pmatEntry // sentinel: root.next is most, root.prev least recently used
	index     map[pmatKey]*pmatEntry
	evictions int
	recycled  int            // misses served from a free list instead of make
	free      [2][][]float64 // evicted buffers: [0] matrices, [1] tip tables
}

// pmatKey identifies one cached unit: a branch length on one kind of
// edge. The kind is its own field — folded into the length's sign bit,
// -0 and +0 would collide as map keys.
type pmatKey struct {
	length float64
	leaf   bool
}

// pmatEntry is one cached unit of per-branch-length state: either the
// flattened per-category transition matrices (internal edge) or the
// tip-column tables derived from them (leaf edge, see tips.go); the
// other slice is nil. Entries are immutable once published, which is
// what makes WarmStart sharing race-free.
type pmatEntry struct {
	key        pmatKey
	mats       []float64 // internal edge: C*S*S, category-major S×S matrices
	tips       []float64 // leaf edge: C*S*(S+1) tip columns (see buildTipTables)
	shared     bool      // visible to another engine; never recycle the buffer
	prev, next *pmatEntry
}

const (
	// pmatMinCap is the smallest permitted capacity: the fused binary
	// kernel reads two entries simultaneously, so at least both must
	// stay resident between their fetches.
	pmatMinCap = 2
	// pmatMaxCap bounds the entry count where entries are small: a
	// 50-taxon search keeps a few thousand lengths hot.
	pmatMaxCap = 4096
	// pmatBudget bounds the resident entry bytes where entries are
	// large (a +Γ4 codon tip table is 121 kB): the transition cache may
	// hold what the partials beside it may.
	pmatBudget = defaultBankBudget
)

// pmatCapacity is the entry bound for an engine of S states and C rate
// categories: pmatMaxCap entries, or as many of the larger kind (tip
// tables) as fit pmatBudget.
func pmatCapacity(S, C int) int {
	return max(pmatMinCap, min(pmatMaxCap, pmatBudget/(C*S*(S+1)*8)))
}

// get returns the cached entry for a branch length on the given kind
// of edge and refreshes its recency.
func (c *pmatCache) get(length float64, leaf bool) (*pmatEntry, bool) {
	e, ok := c.index[pmatKey{length, leaf}]
	if !ok {
		return nil, false
	}
	if c.root.next != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e, true
}

func (c *pmatCache) unlink(e *pmatEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	c.n--
}

func (c *pmatCache) pushFront(e *pmatEntry) {
	e.prev = &c.root
	e.next = c.root.next
	e.next.prev = e
	c.root.next = e
	c.n++
}

// buffer returns a backing slice of the requested size for an entry of
// the given kind, recycled from an evicted entry of that kind when
// there is one. Contents are unspecified; a miss overwrites all of it.
func (c *pmatCache) buffer(leaf bool, size int) []float64 {
	k := kindOf(leaf)
	if n := len(c.free[k]); n > 0 {
		b := c.free[k][n-1]
		c.free[k] = c.free[k][:n-1]
		c.recycled++
		return b
	}
	return make([]float64, size)
}

func kindOf(leaf bool) int {
	if leaf {
		return 1
	}
	return 0
}

// put inserts a freshly computed entry (the caller has just missed on
// its key), evicting the least recently used entries past the capacity.
func (c *pmatCache) put(e *pmatEntry) {
	c.index[e.key] = e
	c.pushFront(e)
	c.trim()
}

// trim evicts from the cold end until the cache fits its capacity,
// returning each unshared buffer to its kind's free list.
func (c *pmatCache) trim() {
	for c.n > c.cap {
		e := c.root.prev
		c.unlink(e)
		delete(c.index, e.key)
		c.evictions++
		if k := kindOf(e.key.leaf); !e.shared && len(c.free[k]) < c.cap {
			buf := e.mats
			if e.key.leaf {
				buf = e.tips
			}
			c.free[k] = append(c.free[k], buf)
		}
	}
}

// newPmatCache returns an empty cache bounded at capacity entries — what
// the byte budget allows at the engine's buffer shape.
func newPmatCache(capacity int) *pmatCache {
	c := &pmatCache{cap: capacity, index: make(map[pmatKey]*pmatEntry, capacity)}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// size returns the number of resident entries.
func (c *pmatCache) size() int { return c.n }

// shareInto publishes every entry of c into dst (skipping keys dst
// already has), marking the entries shared on both sides so neither
// cache ever recycles a buffer the other may read. Iterating from the
// cold end preserves c's recency order in dst. Both caches remain
// independent afterward — only the immutable float data is shared.
func (c *pmatCache) shareInto(dst *pmatCache) {
	for e := c.root.prev; e != &c.root; e = e.prev {
		if _, ok := dst.index[e.key]; ok {
			continue
		}
		e.shared = true
		dst.put(&pmatEntry{key: e.key, mats: e.mats, tips: e.tips, shared: true})
	}
}
