package beagle

// Per-tree conditional-likelihood banks.
//
// PR2 kept one global set of per-node buffers, so an engine that
// scored several trees alternately (a pool worker's share of a GA
// population) overwrote each tree's partials with the next tree's and
// re-derived everything on every revisit. Banks give each tree object
// its own record/buffer set, keyed by phylo.Tree.UID, with the
// GARLI-style twist that makes it affordable: buffers are shared
// copy-on-write between banks. A new tree (typically a clone of the
// last one evaluated) seeds its bank from the most recently evaluated
// bank — records copied, buffers shared by reference — so it pays only
// for the nodes its mutations actually dirty.
//
// Soundness: a bank's invariant is that bufs[id] holds exactly the
// conditional likelihoods of the subtree described by recs[id]
// whenever recs[id] is valid. Seeding copies records and buffer
// pointers together from a bank satisfying the invariant; recomputing
// a node replaces the buffer (in place only when this bank is the sole
// holder) and re-records in the same step; and a buffer referenced by
// any other bank is never written (copy-on-write), so no bank can
// invalidate another's state.
//
// Memory is bounded by a byte budget: each bank accounts the full size
// of every buffer reference it holds (shared buffers are counted once
// per holder, so the accounting is an upper bound on real usage), and
// least-recently-evaluated banks are dropped until the total fits.
// Dropped references recycle through free lists — at steady state the
// engine allocates nothing.
//
// With incremental reuse off there is nothing to keep: one scratch bank
// serves every tree, and a traversal hands each node's buffer back to
// the free list as soon as its parent has consumed it (giveBack),
// so the engine holds the post-order frontier — two buffers on a
// caterpillar, about log₂ of the taxa on a balanced tree — not one
// buffer per internal node.

import "container/list"

// claBuf is one node's conditional-likelihood block: the partials
// laid out [pattern*cats*states] plus the per-pattern log scaling
// factors. refs counts the banks currently holding it.
type claBuf struct {
	part  []float64
	scale []float64
	refs  int
}

// bank is one tree's cached evaluation state: the structural records
// and buffer references, indexed by node ID.
type bank struct {
	uid   uint64
	recs  []nodeRecord
	bufs  []*claBuf
	elem  *list.Element // position in the engine's bank LRU
	bytes int64         // accounted buffer bytes (one share per reference)
}

// maxBanks bounds the bank count independently of the byte budget, so
// searches over tiny trees cannot grow the bank map without limit.
const maxBanks = 1024

// bankFor returns the evaluation bank for tree uid with nn nodes,
// creating (and, in incremental mode, seeding) it on first sight.
// The returned bank becomes the most recently used and the seed source
// for the next new tree.
func (e *Engine) bankFor(uid uint64, nn int) *bank {
	if !e.incremental {
		// Without incremental reuse every node recomputes anyway; a
		// single scratch bank serves every tree.
		if e.lastBank != nil {
			return e.lastBank
		}
		uid = 0
	}
	if bk, ok := e.banks[uid]; ok {
		e.stats.BankHits++
		e.bankLRU.MoveToFront(bk.elem)
		e.lastBank = bk
		return bk
	}
	e.stats.BankMisses++
	bk := e.newBank(uid, nn)
	if e.incremental && e.lastBank != nil && len(e.lastBank.recs) == nn {
		e.seedBank(bk, e.lastBank)
	}
	e.banks[uid] = bk
	bk.elem = e.bankLRU.PushFront(bk)
	e.lastBank = bk
	return bk
}

// newBank returns an empty bank sized for nn nodes, recycled when
// possible.
func (e *Engine) newBank(uid uint64, nn int) *bank {
	var bk *bank
	if k := len(e.freeBanks); k > 0 {
		bk = e.freeBanks[k-1]
		e.freeBanks = e.freeBanks[:k-1]
	} else {
		bk = &bank{}
	}
	bk.uid = uid
	if cap(bk.recs) < nn {
		recs := make([]nodeRecord, nn)
		copy(recs, bk.recs)
		bk.recs = recs
		bk.bufs = make([]*claBuf, nn)
	}
	bk.recs = bk.recs[:nn]
	bk.bufs = bk.bufs[:nn]
	for i := range bk.recs {
		bk.recs[i].valid = false
		bk.bufs[i] = nil
	}
	bk.bytes = 0
	return bk
}

// seedBank copies src's records into dst (recycling dst's child
// slices) and shares src's buffers by reference.
func (e *Engine) seedBank(dst, src *bank) {
	for i := range src.recs {
		sr := &src.recs[i]
		dr := &dst.recs[i]
		dr.valid = sr.valid
		dr.taxon = sr.taxon
		dr.childIDs = append(dr.childIDs[:0], sr.childIDs...)
		dr.childLens = append(dr.childLens[:0], sr.childLens...)
		if b := src.bufs[i]; b != nil {
			b.refs++
			dst.bufs[i] = b
			dst.bytes += e.claBytes
		}
	}
	e.bankBytes += dst.bytes
}

// writableBuf returns a buffer for node id that this bank is free to
// overwrite: the existing one when this bank is its sole holder, a
// fresh (recycled) one otherwise — classic copy-on-write, except no
// copy is ever needed because compute kernels fully overwrite the
// buffer.
func (e *Engine) writableBuf(bk *bank, id int) *claBuf {
	b := bk.bufs[id]
	if b != nil {
		if b.refs == 1 {
			return b
		}
		b.refs-- // still held elsewhere; bank's byte share moves to the new buf
		nb := e.obtainBuf()
		bk.bufs[id] = nb
		return nb
	}
	nb := e.obtainBuf()
	bk.bufs[id] = nb
	bk.bytes += e.claBytes
	e.bankBytes += e.claBytes
	return nb
}

// obtainBuf returns a single-reference buffer of the engine's current
// shape, recycled when possible. Contents are unspecified; every
// kernel's first pass over a node fully overwrites part and scale.
func (e *Engine) obtainBuf() *claBuf {
	if k := len(e.freeBufs); k > 0 {
		b := e.freeBufs[k-1]
		e.freeBufs = e.freeBufs[:k-1]
		b.refs = 1
		e.stats.BufRecycled++
		return b
	}
	return &claBuf{
		part:  make([]float64, e.nPat*e.nCats*e.nStates),
		scale: make([]float64, e.nPat),
		refs:  1,
	}
}

// giveBack releases the scratch bank's buffer for node id (none for a
// leaf) once its one reader is done with it: the parent's kernel, or
// for the root the likelihood readout. The next obtainBuf — this
// traversal's or the next tree's — takes it off the free list.
func (e *Engine) giveBack(bk *bank, id int) {
	if b := bk.bufs[id]; b != nil {
		bk.bufs[id] = nil
		bk.bytes -= e.claBytes
		e.bankBytes -= e.claBytes
		e.releaseBuf(b)
	}
}

// releaseBuf drops one reference, returning the buffer to the free
// list when it was the last.
func (e *Engine) releaseBuf(b *claBuf) {
	b.refs--
	if b.refs > 0 {
		return
	}
	if len(e.freeBufs) < e.maxFreeBufs {
		e.freeBufs = append(e.freeBufs, b)
	}
}

// dropBank releases every buffer reference a bank holds and recycles
// the bank shell.
func (e *Engine) dropBank(bk *bank) {
	for i, b := range bk.bufs {
		if b != nil {
			e.releaseBuf(b)
			bk.bufs[i] = nil
		}
	}
	e.bankBytes -= bk.bytes
	bk.bytes = 0
	delete(e.banks, bk.uid)
	e.bankLRU.Remove(bk.elem)
	bk.elem = nil
	if e.lastBank == bk {
		e.lastBank = nil
	}
	if len(e.freeBanks) < 64 {
		e.freeBanks = append(e.freeBanks, bk)
	}
}

// dropAllBanks discards every bank — the wholesale invalidation used
// on tree-size changes and when incremental evaluation is toggled.
// Transition matrices stay cached: they depend only on the model and
// branch lengths, not on tree content.
func (e *Engine) dropAllBanks() {
	for e.bankLRU.Len() > 0 {
		e.dropBank(e.bankLRU.Front().Value.(*bank))
	}
}

// evictBanks drops least-recently-evaluated banks (never `keep`, the
// bank being evaluated) until the byte budget and bank-count bound are
// met.
func (e *Engine) evictBanks(keep *bank) {
	for (e.bankBytes > e.bankBudget || e.bankLRU.Len() > maxBanks) && e.bankLRU.Len() > 1 {
		back := e.bankLRU.Back().Value.(*bank)
		if back == keep {
			return
		}
		e.dropBank(back)
		e.stats.BankEvictions++
	}
}
