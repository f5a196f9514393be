package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"surfknn/internal/geom"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			P:  geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			ID: int64(i),
		}
	}
	return items
}

func bruteKNN(items []Item, q geom.Vec2, k int) []Item {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i].P.Dist2(q) < s[j].P.Dist2(q) })
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

// knn runs a cold KNNInto with no skip set.
func knn(tr *RTree, q geom.Vec2, k int, visits *int64) []Item {
	var sc Scratch
	return tr.KNNInto(q, k, visits, nil, &sc, nil)
}

// everything is a radius covering every randomItems point from anywhere in
// their square, so a WithinDistInto with it is a full scan.
const everything = 2000

// validate checks the R-tree invariants on the flat form: MBR containment
// and, below the root, entry counts within [1, maxEntries].
func validate(t *RTree) error { return validateNode(&t.flat, 0, true) }

func validateNode(f *Flat, ni int32, isRoot bool) error {
	lo, n := f.Start[ni], f.Count[ni]
	if !isRoot && (n < 1 || n > maxEntries) {
		return fmt.Errorf("node %d holds %d entries", ni, n)
	}
	if f.Leaf[ni] {
		for _, it := range f.Items[lo : lo+n] {
			if !f.MBR[ni].Contains(it.P) {
				return fmt.Errorf("leaf %d MBR misses item %d", ni, it.ID)
			}
		}
		return nil
	}
	for c := lo; c < lo+n; c++ {
		if !f.MBR[ni].ContainsMBR(f.MBR[c]) {
			return fmt.Errorf("node %d MBR misses child %d", ni, c)
		}
		if err := validateNode(f, c, false); err != nil {
			return err
		}
	}
	return nil
}

func TestBulkLoad(t *testing.T) {
	items := randomItems(2000, 2)
	tr := Bulk(items)
	if tr.Len() != 2000 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := validate(tr); err != nil {
		t.Fatal(err)
	}
	// All items findable by a range covering the whole area.
	all := tr.WithinDistInto(geom.Vec2{}, everything, nil, nil)
	if len(all) != 2000 {
		t.Errorf("full range = %d items", len(all))
	}
	// Empty bulk works.
	if Bulk(nil).Len() != 0 {
		t.Error("empty bulk")
	}
}

func TestKNNAgainstBruteForce(t *testing.T) {
	items := randomItems(1000, 3)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		got := knn(tr, q, k, nil)
		want := bruteKNN(items, q, k)
		if len(got) != len(want) {
			t.Fatalf("KNN returned %d items, want %d", len(got), len(want))
		}
		for i := range got {
			// Compare distances (ties may permute IDs).
			if gd, wd := got[i].P.Dist(q), want[i].P.Dist(q); gd != wd {
				t.Fatalf("k=%d item %d: dist %v, want %v", k, i, gd, wd)
			}
		}
		// Ascending order.
		for i := 1; i < len(got); i++ {
			if got[i-1].P.Dist2(q) > got[i].P.Dist2(q) {
				t.Fatal("KNN results not sorted")
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	if got := knn(Bulk(nil), geom.Vec2{}, 5, nil); got != nil {
		t.Errorf("empty tree KNN = %v", got)
	}
	if got := Bulk(nil).WithinDistInto(geom.Vec2{}, everything, nil, nil); got != nil {
		t.Errorf("empty tree range = %v", got)
	}
	tr := Bulk([]Item{{P: geom.Vec2{X: 1, Y: 1}, ID: 7}})
	got := knn(tr, geom.Vec2{}, 5, nil)
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("KNN on single-item tree = %v", got)
	}
	if got := knn(tr, geom.Vec2{}, 0, nil); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
}

func TestWithinDist(t *testing.T) {
	items := randomItems(800, 7)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		c := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		r := rng.Float64() * 200
		got := tr.WithinDistInto(c, r, nil, nil)
		want := 0
		for _, it := range items {
			if it.P.Dist(c) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("WithinDist = %d, want %d", len(got), want)
		}
		for _, it := range got {
			if it.P.Dist(c) > r {
				t.Fatalf("item %v outside radius %v", it, r)
			}
		}
	}
}

func TestAccessCounting(t *testing.T) {
	items := randomItems(5000, 9)
	tr := Bulk(items)
	var knnAccesses int64
	knn(tr, geom.Vec2{X: 500, Y: 500}, 10, &knnAccesses)
	if knnAccesses == 0 {
		t.Fatal("KNN accesses not counted")
	}
	// A k-NN for small k should touch far fewer nodes than a full scan.
	var fullScan int64
	tr.WithinDistInto(geom.Vec2{}, everything, &fullScan, nil)
	if knnAccesses*5 > fullScan {
		t.Errorf("KNN touched %d nodes vs full scan %d; expected strong pruning", knnAccesses, fullScan)
	}
}

func TestDuplicatePositions(t *testing.T) {
	var items []Item
	for i := 0; i < 100; i++ {
		items = append(items, Item{P: geom.Vec2{X: 5, Y: 5}, ID: int64(i)})
	}
	tr := Bulk(items)
	if err := validate(tr); err != nil {
		t.Fatal(err)
	}
	got := knn(tr, geom.Vec2{X: 5, Y: 5}, 100, nil)
	if len(got) != 100 {
		t.Errorf("KNN over duplicates = %d", len(got))
	}
}

func TestKNNIntoSkip(t *testing.T) {
	items := randomItems(800, 11)
	tr := Bulk(items)
	odd := make(map[int64]struct{})
	for _, it := range items {
		if it.ID%2 == 1 {
			odd[it.ID] = struct{}{}
		}
	}
	var evenItems []Item
	for _, it := range items {
		if it.ID%2 == 0 {
			evenItems = append(evenItems, it)
		}
	}
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(15)

		// An empty skip set must be byte-for-byte the nil one, visit
		// counts included.
		var vNil, vEmpty int64
		plain := tr.KNNInto(q, k, &vNil, nil, &sc, nil)
		empty := tr.KNNInto(q, k, &vEmpty, map[int64]struct{}{}, &sc, nil)
		if vNil != vEmpty || len(plain) != len(empty) {
			t.Fatalf("empty skip diverged: visits %d vs %d, len %d vs %d",
				vNil, vEmpty, len(plain), len(empty))
		}
		for i := range plain {
			if plain[i] != empty[i] {
				t.Fatalf("empty skip item %d: %+v vs %+v", i, plain[i], empty[i])
			}
		}

		// Skipping odd IDs yields the k nearest even-ID items, full k.
		got := tr.KNNInto(q, k, nil, odd, &sc, nil)
		want := bruteKNN(evenItems, q, k)
		if len(got) != len(want) {
			t.Fatalf("filtered KNN returned %d items, want %d", len(got), len(want))
		}
		for i := range got {
			if gd, wd := got[i].P.Dist(q), want[i].P.Dist(q); gd != wd {
				t.Fatalf("filtered item %d: dist %v, want %v", i, gd, wd)
			}
		}
	}
}
