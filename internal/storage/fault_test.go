package storage

import (
	"errors"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// faultFile wraps a PageFile and fails operations after a countdown,
// exercising the error paths of the structures above it.
type faultFile struct {
	inner     PageFile
	failAfter int // operations until failure; -1 = never
}

var errInjected = errors.New("injected fault")

func (f *faultFile) tick() error {
	if f.failAfter == 0 {
		return errInjected
	}
	if f.failAfter > 0 {
		f.failAfter--
	}
	return nil
}

func (f *faultFile) Alloc() (PageID, error) {
	if err := f.tick(); err != nil {
		return InvalidPage, err
	}
	return f.inner.Alloc()
}

func (f *faultFile) ReadPage(id PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.ReadPage(id, buf)
}

func (f *faultFile) WritePage(id PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.WritePage(id, buf)
}

func (f *faultFile) NumPages() int { return f.inner.NumPages() }
func (f *faultFile) Close() error  { return f.inner.Close() }

func TestBTreeSurfacesIOErrors(t *testing.T) {
	// Insert enough data to span pages, then make every file op fail and
	// check that operations return the injected error rather than panic.
	ff := &faultFile{inner: NewMemFile(), failAfter: -1}
	pool := NewBufferPool(ff, 4) // tiny pool forces evictions/misses
	tree, err := NewBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tree.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ff.failAfter = 0
	foundErr := false
	for i := 0; i < 2000 && !foundErr; i++ {
		if _, _, err := tree.Search(uint64(i)); err != nil {
			foundErr = true
			if !errors.Is(err, errInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
		}
	}
	if !foundErr {
		t.Fatal("no error surfaced despite injected faults (pool too large?)")
	}
}

func TestClusteredSurfacesIOErrors(t *testing.T) {
	ff := &faultFile{inner: NewMemFile(), failAfter: -1}
	pool := NewBufferPool(ff, 2)
	var recs []ClusterRecord
	for i := 0; i < 500; i++ {
		x := float64(i % 25)
		y := float64(i / 25)
		recs = append(recs, ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1},
			From: 0, To: 1,
		})
	}
	c, err := BuildClustered(pool, recs)
	if err != nil {
		t.Fatal(err)
	}
	ff.failAfter = 1
	err = c.Fetch(geom.MBR{MinX: -1, MinY: -1, MaxX: 30, MaxY: 30}, 0, nil, func(ClusterRecord) {})
	if !errors.Is(err, errInjected) {
		t.Fatalf("Fetch error = %v, want injected fault", err)
	}
}

func TestBufferPoolEvictionWriteFailure(t *testing.T) {
	ff := &faultFile{inner: NewMemFile(), failAfter: -1}
	pool := NewBufferPool(ff, 2)
	for i := 0; i < 2; i++ {
		fr, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr, true) // dirty
	}
	// Next alloc must evict a dirty page; make the write-back fail.
	ff.failAfter = 1 // allow the Alloc, fail the eviction write
	_, err := pool.Alloc()
	if !errors.Is(err, errInjected) {
		t.Fatalf("expected injected fault on eviction, got %v", err)
	}
}

// Property: BTree with interleaved inserts and deletes always agrees with a
// map and stays structurally valid.
func TestBTreeRandomOpsAgainstMap(t *testing.T) {
	pool := NewBufferPool(NewMemFile(), 512)
	tree, err := NewBTree(pool)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 30000; op++ {
		k := uint64(rng.Intn(5000))
		switch rng.Intn(3) {
		case 0, 1: // insert
			v := rng.Uint64()
			ref[k] = v
			if err := tree.Insert(k, v); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			wantOK := false
			if _, ok := ref[k]; ok {
				wantOK = true
				delete(ref, k)
			}
			ok, err := tree.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("Delete(%d) = %v, want %v", k, ok, wantOK)
			}
		}
	}
	if tree.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(ref))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, v := range ref {
		got, found, err := tree.Search(k)
		if err != nil || !found || got != v {
			t.Fatalf("Search(%d) = %d,%v,%v want %d", k, got, found, err, v)
		}
	}
	// A full range scan visits exactly the live keys in order.
	var prev uint64
	count := 0
	tree.RangeScan(0, ^uint64(0), func(k, v uint64) bool {
		if count > 0 && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != len(ref) {
		t.Fatalf("scan visited %d keys, want %d", count, len(ref))
	}
}

// Property: Clustered.Fetch returns exactly the records a brute-force
// filter selects, for random regions and levels.
func TestClusteredFetchAgainstBruteForce(t *testing.T) {
	pool := NewBufferPool(NewMemFile(), 4096)
	rng := rand.New(rand.NewSource(7))
	var recs []ClusterRecord
	for i := 0; i < 3000; i++ {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		from := int32(rng.Intn(5))
		recs = append(recs, ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3},
			From: from,
			To:   from + 1 + int32(rng.Intn(5)),
		})
	}
	// Keep an un-reordered copy for the oracle.
	oracle := append([]ClusterRecord(nil), recs...)
	c, err := BuildClustered(pool, recs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := rng.Float64() * 90
		y := rng.Float64() * 90
		region := geom.MBR{MinX: x, MinY: y, MaxX: x + 15, MaxY: y + 15}
		level := int32(rng.Intn(8))
		want := map[uint64]bool{}
		for _, r := range oracle {
			if r.From <= level && level < r.To && r.MBR.Intersects(region) {
				want[r.ID] = true
			}
		}
		got := map[uint64]bool{}
		err := c.Fetch(region, level, nil, func(r ClusterRecord) {
			if got[r.ID] {
				t.Fatalf("duplicate record %d", r.ID)
			}
			got[r.ID] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fetched %d records, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing record %d", trial, id)
			}
		}
		// FetchIDs selects the same records, each with its stored MBR.
		ids, boxes, err := c.FetchIDs(region, level, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(want) || len(boxes) != len(ids) {
			t.Fatalf("trial %d: FetchIDs gave %d ids, %d boxes, want %d", trial, len(ids), len(boxes), len(want))
		}
		for i, id := range ids {
			if !want[id] || boxes[i] != oracle[id].MBR {
				t.Fatalf("trial %d: FetchIDs record %d box %+v, want selected with %+v", trial, id, boxes[i], oracle[id].MBR)
			}
		}
	}
}
