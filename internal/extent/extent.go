// Package extent tracks sets of byte ranges. The Swift data-transfer
// protocol is built on datagrams that may be lost, duplicated, or reordered;
// both sides keep extent sets to decide which portions of a request have
// been received and which must be resent — the client for reads ("the
// client keeps sufficient state to determine what packets have been
// received"), the storage agent for writes ("each storage agent checks the
// packets it receives against the packets it was expecting").
package extent

import (
	"fmt"
	"sort"
	"strings"
)

// Extent is a half-open byte range [Off, Off+Len).
type Extent struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + e.Len }

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Off, e.End()) }

// Set is a set of non-overlapping, non-adjacent extents kept in ascending
// order. The zero value is an empty set. Set is not safe for concurrent use.
type Set struct {
	es []Extent
}

// Add inserts [off, off+n) into the set, coalescing with any overlapping or
// adjacent extents. Adding an empty or negative range is a no-op.
func (s *Set) Add(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	// Find the first extent whose end is >= off (candidate for merge).
	i := sort.Search(len(s.es), func(i int) bool { return s.es[i].End() >= off }) //lint:allow hotalloc non-escaping closure, stack-allocated (the extent bench measures 0 allocs/op)
	j := i
	for j < len(s.es) && s.es[j].Off <= end {
		if s.es[j].Off < off {
			off = s.es[j].Off
		}
		if s.es[j].End() > end {
			end = s.es[j].End()
		}
		j++
	}
	merged := Extent{Off: off, Len: end - off}
	if j > i {
		// Coalesce in place: the merged extent replaces [i, j).
		s.es[i] = merged
		s.es = append(s.es[:i+1], s.es[j:]...)
		return
	}
	// Pure insertion at i: shift the tail up by one.
	s.es = append(s.es, Extent{})
	copy(s.es[i+1:], s.es[i:])
	s.es[i] = merged
}

// AddExtent inserts e into the set.
func (s *Set) AddExtent(e Extent) { s.Add(e.Off, e.Len) }

// Contains reports whether [off, off+n) is fully covered by the set.
// An empty range is trivially contained.
func (s *Set) Contains(off, n int64) bool {
	if n <= 0 {
		return true
	}
	i := sort.Search(len(s.es), func(i int) bool { return s.es[i].End() > off }) //lint:allow hotalloc non-escaping closure, stack-allocated (the extent bench measures 0 allocs/op)
	if i == len(s.es) {
		return false
	}
	e := s.es[i]
	return e.Off <= off && e.End() >= off+n
}

// Missing returns the portions of [off, off+n) not covered by the set,
// in ascending order.
func (s *Set) Missing(off, n int64) []Extent {
	var out []Extent
	if n <= 0 {
		return out
	}
	end := off + n
	pos := off
	i := sort.Search(len(s.es), func(i int) bool { return s.es[i].End() > off })
	for ; i < len(s.es) && s.es[i].Off < end; i++ {
		e := s.es[i]
		if e.Off > pos {
			out = append(out, Extent{Off: pos, Len: e.Off - pos})
		}
		if e.End() > pos {
			pos = e.End()
		}
	}
	if pos < end {
		out = append(out, Extent{Off: pos, Len: end - pos})
	}
	return out
}

// Covered returns the total number of bytes of [off, off+n) that are
// covered by the set.
func (s *Set) Covered(off, n int64) int64 {
	missing := int64(0)
	for _, m := range s.Missing(off, n) {
		missing += m.Len
	}
	return n - missing
}

// Total returns the total number of bytes in the set.
func (s *Set) Total() int64 {
	var t int64
	for _, e := range s.es {
		t += e.Len
	}
	return t
}

// Len returns the number of disjoint extents in the set.
func (s *Set) Len() int { return len(s.es) }

// At returns the i'th extent in ascending order, 0 <= i < Len().
func (s *Set) At(i int) Extent { return s.es[i] }

// Extents returns a copy of the extents in ascending order.
func (s *Set) Extents() []Extent {
	out := make([]Extent, len(s.es))
	copy(out, s.es)
	return out
}

// Reset empties the set, retaining capacity.
func (s *Set) Reset() { s.es = s.es[:0] }

// String renders the set as a compact list of ranges.
func (s *Set) String() string {
	parts := make([]string, len(s.es))
	for i, e := range s.es {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
