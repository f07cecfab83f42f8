package logpool

import "time"

// Index is the standalone two-level-index building block (offset-sorted,
// locality-merging extent list with a page bitmap) exported for strategy
// code that needs the merging semantics outside a pool — PARIX's
// new/original value logs and TSUE's Equation-5 delta merging.
type Index struct {
	bi blockIndex
}

// NewIndex creates an index with the given merge mode.
func NewIndex(mode MergeMode) *Index { return &Index{bi: blockIndex{mode: mode}} }

// Insert merges [off, off+len(data)) into the index (data is copied).
func (x *Index) Insert(off uint32, data []byte, v time.Duration) { x.bi.insert(off, data, v) }

// Lookup returns the bytes of [off, off+size) if fully covered. The
// slice aliases the index and is valid only until the next Insert.
func (x *Index) Lookup(off, size uint32) ([]byte, bool) { return x.bi.lookup(off, size) }

// Overlay applies indexed extents intersecting dst (starting at off).
func (x *Index) Overlay(off uint32, dst []byte) { x.bi.overlay(off, dst) }

// Extents returns the current extent list. It aliases internal storage:
// the list and its Data slices are valid only until the next Insert,
// which may rewrite extent bytes in place.
func (x *Index) Extents() []Extent { return x.bi.extents }

// Bytes returns the merged payload footprint.
func (x *Index) Bytes() int64 { return x.bi.bytes }
