// Package index provides the 2-D spatial index over object points (the
// paper's Dxy, the projections of the objects onto the (x,y)-plane): an
// STR-packed R-tree with best-first k-NN search and circular range queries.
// Node visits are counted as the index's page-access contribution.
package index

import (
	"math"
	"sort"

	"surfknn/internal/geom"
)

// Item is an indexed point with an opaque identifier.
type Item struct {
	P  geom.Vec2
	ID int64
}

const maxEntries = 32 // entries per node (≈ a 4 KiB page of point records)

// RTree is a static R-tree over 2-D points, built once by Bulk (or restored
// by FromFlat) and immutable afterwards, so concurrent searches are safe.
// Queries take a visits counter (nil to skip) instead of mutating shared
// state: each node visited adds one — the R-tree's page-access proxy (one
// node ≈ one page) — charged to the per-query account of whoever issued the
// search.
//
// The tree is its Flat form: four arrays indexed by node number plus one
// packed item slab (an index-linked structure-of-arrays layout). Node i's
// MBR is MBR[i], and Start[i]/Count[i] delimit either its child-node index
// range (internal) or its item range in the item slab (leaf). Node 0 is the
// root; a node's children occupy consecutive indices. The layout is
// pointer-free, so it serialises verbatim into snapshots and is mmap-ready.
type RTree struct {
	flat Flat
}

// visit charges one node visit to the per-query counter, if any. The
// counter is single-goroutine by design (each Session owns one and passes a
// pointer into its searches); sessions later fold the per-query total into
// the process-wide obs.Registry at query end — the tree itself never writes
// shared state, which is what keeps concurrent searches lock-free.
func visit(visits *int64) {
	if visits != nil {
		*visits++
	}
}

// packNode is one node of the level being packed: its MBR and the range of
// its entries — items of the STR-sorted slab for a leaf, nodes of the level
// below otherwise.
type packNode struct {
	mbr   geom.MBR
	lo, n int32
}

// Bulk builds a tree from items using STR (sort-tile-recursive) packing,
// which yields well-clustered leaves for static object sets. Levels are
// packed bottom-up and then numbered breadth-first, so every node's children
// occupy a consecutive index range and leaves' items tile the slab in node
// order. The node order — and therefore snapshots, visit counts and page
// goldens — depends on the exact sort.Slice call sequence below (sort.Slice
// is not stable, so ties are ordered by the call history): the layout is
// pinned by TestBulkLayoutPinned.
func Bulk(items []Item) *RTree {
	if len(items) == 0 {
		return &RTree{flat: Flat{
			Leaf:  []bool{true},
			MBR:   []geom.MBR{geom.EmptyMBR()},
			Start: []int32{0},
			Count: []int32{0},
		}}
	}
	its := append([]Item(nil), items...)
	levels := [][]packNode{strPackItems(its)}
	for top := levels[0]; len(top) > 1; top = levels[len(levels)-1] {
		levels = append(levels, strPackNodes(top))
	}
	return &RTree{flat: layout(levels, its)}
}

// strPackItems sorts its into STR order in place — by X, then each vertical
// slice by Y — and cuts it into leaves of up to maxEntries items.
func strPackItems(its []Item) []packNode {
	sort.Slice(its, func(i, j int) bool { return its[i].P.X < its[j].P.X })
	var leaves []packNode
	forEachSTRSlice(len(its), func(s, e int) {
		slice := its[s:e]
		sort.Slice(slice, func(i, j int) bool { return slice[i].P.Y < slice[j].P.Y })
		for o := s; o < e; o += maxEntries {
			oe := min(o+maxEntries, e)
			leaf := packNode{mbr: geom.EmptyMBR(), lo: int32(o), n: int32(oe - o)}
			for _, it := range its[o:oe] {
				leaf.mbr = leaf.mbr.ExtendPoint(it.P)
			}
			leaves = append(leaves, leaf)
		}
	})
	return leaves
}

// strPackNodes sorts one level into STR order by MBR centre in place and
// groups it into parents of up to maxEntries children.
func strPackNodes(ns []packNode) []packNode {
	sort.Slice(ns, func(i, j int) bool { return ns[i].mbr.Center().X < ns[j].mbr.Center().X })
	var parents []packNode
	forEachSTRSlice(len(ns), func(s, e int) {
		slice := ns[s:e]
		sort.Slice(slice, func(i, j int) bool { return slice[i].mbr.Center().Y < slice[j].mbr.Center().Y })
		for o := s; o < e; o += maxEntries {
			oe := min(o+maxEntries, e)
			p := packNode{mbr: geom.EmptyMBR(), lo: int32(o), n: int32(oe - o)}
			for _, c := range ns[o:oe] {
				p.mbr = p.mbr.Union(c.mbr)
			}
			parents = append(parents, p)
		}
	})
	return parents
}

// forEachSTRSlice calls fn on the [s,e) bounds of the vertical slices STR
// cuts n entries into: ⌈√(number of groups)⌉ slices of whole groups.
func forEachSTRSlice(n int, fn func(s, e int)) {
	groups := (n + maxEntries - 1) / maxEntries
	sliceSize := int(math.Ceil(math.Sqrt(float64(groups)))) * maxEntries
	for s := 0; s < n; s += sliceSize {
		fn(s, min(s+sliceSize, n))
	}
}

// layout numbers the packed levels breadth-first from the single top node
// and writes them into the flat arrays, copying each leaf's items into the
// slab as the leaf is numbered.
func layout(levels [][]packNode, its []Item) Flat {
	nodes := 0
	for _, lvl := range levels {
		nodes += len(lvl)
	}
	f := Flat{
		Leaf:  make([]bool, 0, nodes),
		MBR:   make([]geom.MBR, 0, nodes),
		Start: make([]int32, 0, nodes),
		Count: make([]int32, 0, nodes),
		Items: make([]Item, 0, len(its)),
	}
	order := []int32{0} // this level's nodes in breadth-first order
	for d := len(levels) - 1; d >= 0; d-- {
		childBase := int32(len(f.Leaf) + len(order))
		var below []int32
		for _, i := range order {
			p := levels[d][i]
			start := int32(len(f.Items))
			if d == 0 {
				f.Items = append(f.Items, its[p.lo:p.lo+p.n]...)
			} else {
				start = childBase + int32(len(below))
				for c := p.lo; c < p.lo+p.n; c++ {
					below = append(below, c)
				}
			}
			f.Leaf = append(f.Leaf, d == 0)
			f.MBR = append(f.MBR, p.mbr)
			f.Start = append(f.Start, start)
			f.Count = append(f.Count, p.n)
		}
		order = below
	}
	return f
}

// Len returns the number of indexed items.
func (t *RTree) Len() int { return len(t.flat.Items) }

// pushItem is the single append site the query paths grow their result
// slices through; warm callers pass buffers at their high-water capacity,
// so the append is a plain length bump.
func pushItem(dst []Item, it Item) []Item { return append(dst, it) }

// WithinDistInto appends the items within Euclidean distance r of center —
// the circular range query of MR3's step 3 — to dst in traversal order,
// charging node visits to visits. With dst at its high-water capacity the
// search performs no allocation.
//
//sklint:hotpath
func (t *RTree) WithinDistInto(center geom.Vec2, r float64, visits *int64, dst []Item) []Item {
	return t.within(0, center, r, visits, dst)
}

func (t *RTree) within(ni int32, center geom.Vec2, r float64, visits *int64, dst []Item) []Item {
	visit(visits)
	f := &t.flat
	lo, n := f.Start[ni], f.Count[ni]
	if f.Leaf[ni] {
		for _, it := range f.Items[lo : lo+n] {
			if it.P.Dist(center) <= r {
				dst = pushItem(dst, it)
			}
		}
		return dst
	}
	for c := lo; c < lo+n; c++ {
		if f.MBR[c].DistToPoint(center) <= r {
			dst = t.within(c, center, r, visits, dst)
		}
	}
	return dst
}

// SortByDist orders items canonically: ascending squared planar distance to
// q, item id as the tiebreak. The order is a pure function of the item set —
// independent of tree shape or how the set was gathered — which is what
// makes a scatter-gather coordinator's merged candidate list reproduce a
// single tree's enumeration bit for bit (see internal/shard).
// In-place shell sort: no allocation, so it is safe on the query hot path.
func SortByDist(items []Item, q geom.Vec2) {
	d2 := func(it Item) float64 {
		dx, dy := it.P.X-q.X, it.P.Y-q.Y
		return dx*dx + dy*dy
	}
	less := func(a, b Item) bool {
		da, db := d2(a), d2(b)
		//lint:ignore float-eq canonical order is defined on exact float bits; a tolerance would make it input-order dependent
		if da != db {
			return da < db
		}
		return a.ID < b.ID
	}
	// Ciura gap sequence, ample for candidate sets (tens to thousands).
	for _, gap := range [...]int{701, 301, 132, 57, 23, 10, 4, 1} {
		for i := gap; i < len(items); i++ {
			it := items[i]
			j := i
			for ; j >= gap && less(it, items[j-gap]); j -= gap {
				items[j] = items[j-gap]
			}
			items[j] = it
		}
	}
}
