package index

import (
	"container/heap"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// refHeap drives the flat traversal through the real container/heap, as the
// pre-SoA implementation did. The concrete heap in knn.go must reproduce
// its pop order exactly — including among equal distances — because golden
// visit counts depend on it.
type refHeap []knnEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(knnEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refKNN(t *RTree, q geom.Vec2, k int, visits *int64) []Item {
	f := &t.flat
	if k <= 0 || len(f.Items) == 0 {
		return nil
	}
	pq := &refHeap{}
	heap.Push(pq, knnEntry{dist: f.MBR[0].DistToPoint(q), ni: 0})
	var out []Item
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(knnEntry)
		if e.leaf {
			out = append(out, e.item)
			continue
		}
		visit(visits)
		lo, n := f.Start[e.ni], f.Count[e.ni]
		if f.Leaf[e.ni] {
			for _, it := range f.Items[lo : lo+n] {
				heap.Push(pq, knnEntry{dist: it.P.Dist(q), item: it, leaf: true})
			}
			continue
		}
		for c := lo; c < lo+n; c++ {
			heap.Push(pq, knnEntry{dist: f.MBR[c].DistToPoint(q), ni: c})
		}
	}
	return out
}

func TestConcreteHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// A lattice with many duplicated coordinates forces distance ties, the
	// case where heap tie order actually matters.
	var items []Item
	id := int64(0)
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			items = append(items, Item{P: geom.Vec2{X: float64(x), Y: float64(y)}, ID: id})
			id++
		}
	}
	tr := Bulk(items)
	for trial := 0; trial < 50; trial++ {
		q := geom.Vec2{X: float64(rng.Intn(30)), Y: float64(rng.Intn(30))}
		k := 1 + rng.Intn(40)
		var vWant, vGot int64
		want := refKNN(tr, q, k, &vWant)
		got := knn(tr, q, k, &vGot)
		if vWant != vGot {
			t.Fatalf("trial %d: visits %d != reference %d", trial, vGot, vWant)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d items != reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d item %d: %+v != reference %+v (tie order diverged)",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	items := randomItems(2000, 21)
	tr := Bulk(items)
	loaded := FromFlat(tr.Flatten())
	if loaded.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), tr.Len())
	}
	if err := validate(loaded); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		var v1, v2 int64
		a := knn(tr, q, 10, &v1)
		b := knn(loaded, q, 10, &v2)
		if v1 != v2 || len(a) != len(b) {
			t.Fatalf("loaded tree diverged: visits %d/%d lens %d/%d", v1, v2, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d: %+v != %+v", i, a[i], b[i])
			}
		}
		ra := tr.WithinDistInto(q, 150, nil, nil)
		rb := loaded.WithinDistInto(q, 150, nil, nil)
		if len(ra) != len(rb) {
			t.Fatalf("range diverged: %d vs %d", len(ra), len(rb))
		}
	}
	// Empty round-trips.
	if FromFlat(Bulk(nil).Flatten()).Len() != 0 {
		t.Error("empty flat round-trip")
	}
}

func TestKNNIntoWarmDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	items := randomItems(5000, 29)
	tr := Bulk(items)
	var sc Scratch
	dst := make([]Item, 0, 64)
	buf := make([]Item, 0, 6000)
	q := geom.Vec2{X: 500, Y: 500}
	skip := map[int64]struct{}{1: {}, 2: {}, 3: {}}
	// Warm the scratch and buffers to their high-water marks.
	dst = tr.KNNInto(q, 50, nil, skip, &sc, dst[:0])
	buf = tr.WithinDistInto(q, 300, nil, buf[:0])
	if n := testing.AllocsPerRun(20, func() {
		dst = tr.KNNInto(q, 50, nil, nil, &sc, dst[:0])
		dst = tr.KNNInto(q, 50, nil, skip, &sc, dst[:0])
		buf = tr.WithinDistInto(q, 300, nil, buf[:0])
	}); n != 0 {
		t.Fatalf("warm searches allocate %.1f times per run, want 0", n)
	}
}
