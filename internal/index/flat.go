package index

import "surfknn/internal/geom"

// Flat is the tree's SoA form, exposed for persistence: five flat buffers
// that a snapshot can write (and mmap back) verbatim. Node i's children
// (internal) or items (leaf) are Start[i]..Start[i]+Count[i]; node 0 is the
// root. Bulk numbers nodes breadth-first, so internal nodes' child ranges
// tile nodes 1..len(Leaf)-1 in node order and leaves' item ranges tile the
// item slab in node order.
type Flat struct {
	Leaf  []bool
	MBR   []geom.MBR
	Start []int32
	Count []int32
	Items []Item
}

// Flatten returns the tree's flat buffers. They are the tree's own query
// structures, not copies: callers must treat them as read-only.
func (t *RTree) Flatten() Flat { return t.flat }

// FromFlat wraps flat buffers (as Flatten returned them) as a tree without
// any repacking; the buffers are retained. An empty Flat yields the empty
// tree.
func FromFlat(f Flat) *RTree {
	if len(f.Leaf) == 0 {
		return Bulk(nil)
	}
	return &RTree{flat: f}
}
