// Package slab cuts long-lived strings from shared chunks, so that
// names a process keeps for its whole life — batch and job IDs, journal
// details, the strings a log decodes on recovery — cost one allocation
// per chunk instead of one each.
//
// A returned string points into its chunk and keeps the whole chunk
// alive, so a slab suits strings that live about as long as each
// other; a short-lived string cut from one pins its neighbours.
package slab

import "strings"

// chunkSize is one chunk's capacity. It is an allocator size class, so
// a chunk wastes nothing to rounding.
const chunkSize = 4096

// Slab hands out strings cut from its current chunk. Its zero value is
// ready to use. A chunk is a strings.Builder grown once and then
// written only within its capacity, so bytes already written never
// move or change and every string returned stays valid and immutable.
// A Slab is not safe for concurrent use.
type Slab struct {
	b strings.Builder
}

// String returns a string with p's bytes. It copies p into the current
// chunk, starting a new chunk when p does not fit; a p longer than a
// chunk gets an allocation of its own and leaves the chunk as it was.
func (s *Slab) String(p []byte) string {
	switch {
	case len(p) == 0:
		return ""
	case len(p) > chunkSize:
		return string(p)
	case s.b.Cap()-s.b.Len() < len(p):
		s.b = strings.Builder{}
		s.b.Grow(chunkSize)
	}
	start := s.b.Len()
	s.b.Write(p)
	return s.b.String()[start:]
}
