package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"surfknn/internal/geom"
)

// layoutHash digests every byte of a flat tree that a snapshot persists or
// a traversal reads: per node the leaf flag, the MBR's float bits and the
// child/item range, then the item slab in order.
func layoutHash(f Flat) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(f.Leaf)))
	for i, leaf := range f.Leaf {
		if leaf {
			put(1)
		} else {
			put(0)
		}
		m := f.MBR[i]
		put(math.Float64bits(m.MinX))
		put(math.Float64bits(m.MinY))
		put(math.Float64bits(m.MaxX))
		put(math.Float64bits(m.MaxY))
		put(uint64(int64(f.Start[i])))
		put(uint64(int64(f.Count[i])))
	}
	put(uint64(len(f.Items)))
	for _, it := range f.Items {
		put(math.Float64bits(it.P.X))
		put(math.Float64bits(it.P.Y))
		put(uint64(it.ID))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBulkLayoutPinned pins Bulk's output layout bit for bit. Snapshots
// store the packed tree verbatim and golden page counts depend on node
// order, so any change to STR packing — including the order sort.Slice
// leaves equal keys in — must show up here first. The lattice repeats
// every X and Y coordinate many times, so the STR sorts and the
// parent-level centre sorts run on long runs of ties.
func TestBulkLayoutPinned(t *testing.T) {
	lattice := make([]Item, 0, 45*45)
	for i := 0; i < 45; i++ {
		for j := 0; j < 45; j++ {
			lattice = append(lattice, Item{P: geom.Vec2{X: float64(i / 3), Y: float64(j / 5)}, ID: int64(len(lattice))})
		}
	}
	cases := []struct {
		name  string
		items []Item
		want  string
	}{
		{"empty", nil, "12cfc13e1b00e7fa734393d3ba936ba9941fc8a29d31f5899af6bc6d7fd0850b"},
		{"one", randomItems(1, 1), "0e1f2d400c2647f519283dbef072ac64d2d5c0904443210a23eeee8a899d678f"},
		{"one-leaf", randomItems(32, 2), "e414df3184e1ecc2098abe977fc3f62adacf33ded53a03c782cd8b27276bb279"},
		{"two-leaves", randomItems(33, 3), "14616899fb40c1ca72f73dfe9b49a6adcfc52cbe91ed98c2c1e5917831f2321a"},
		{"three-levels", randomItems(1025, 4), "a7fdbee290ec5c7c82978a64ab8f61f6f90dbbe934175fd1f2a2c553712b16c1"},
		{"four-levels", randomItems(40000, 5), "e2683481efb6a76a9a39e32898cb1887a240f696262ee8ff8197ac86b038e20b"},
		{"tie-lattice", lattice, "dc832c2e10ea1bb026d35866f0d1c675ebe4dec8403b7198aa985c25d0b90561"},
	}
	for _, c := range cases {
		if got := layoutHash(Bulk(c.items).Flatten()); got != c.want {
			t.Errorf("%s: layout hash %s, want %s", c.name, got, c.want)
		}
	}
}
