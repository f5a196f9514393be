package storage

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"surfknn/internal/geom"
)

func TestMemFileBasics(t *testing.T) {
	f := NewMemFile()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || f.NumPages() != 1 {
		t.Fatalf("id=%d pages=%d", id, f.NumPages())
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, PageSize)
	if err := f.ReadPage(id, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xAB {
		t.Error("read back wrong data")
	}
	if err := f.ReadPage(99, out); err == nil {
		t.Error("out-of-range read should fail")
	}
	if err := f.WritePage(99, buf); err == nil {
		t.Error("out-of-range write should fail")
	}
}

func TestDiskFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, []byte("hello disk"))
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and read.
	f2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 1 {
		t.Fatalf("pages after reopen = %d", f2.NumPages())
	}
	out := make([]byte, PageSize)
	if err := f2.ReadPage(id, out); err != nil {
		t.Fatal(err)
	}
	if string(out[:10]) != "hello disk" {
		t.Errorf("read back %q", out[:10])
	}
}

func TestBufferPoolHitsAndMisses(t *testing.T) {
	f := NewMemFile()
	bp := NewBufferPool(f, 4)
	fr, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	fr.Data[0] = 7
	id := fr.ID
	bp.Unpin(fr, true)

	// First Get is a hit (still cached from Alloc).
	fr, err = bp.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != 7 {
		t.Error("cached data lost")
	}
	bp.Unpin(fr, false)
	st := bp.Stats()
	if st.Accesses != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	f := NewMemFile()
	bp := NewBufferPool(f, 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		fr, err := bp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(i + 1)
		ids = append(ids, fr.ID)
		bp.Unpin(fr, true)
	}
	// Pages 0 and 1 must have been evicted (written back).
	if bp.Stats().Evictions < 2 {
		t.Errorf("evictions = %d", bp.Stats().Evictions)
	}
	// Re-reading page 0 is a miss but returns the persisted data.
	fr, err := bp.Get(ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != 1 {
		t.Errorf("evicted page lost data: %d", fr.Data[0])
	}
	bp.Unpin(fr, false)
	if bp.Stats().Misses == 0 {
		t.Error("expected a miss")
	}
}

func TestBufferPoolPinnedNotEvicted(t *testing.T) {
	f := NewMemFile()
	bp := NewBufferPool(f, 2)
	a, _ := bp.Alloc()
	b, _ := bp.Alloc()
	// Both pinned; a third allocation must fail with the sentinel callers
	// use to tell pin exhaustion from I/O errors.
	if _, err := bp.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("expected ErrPoolExhausted with all pages pinned, got %v", err)
	}
	bp.Unpin(a, false)
	bp.Unpin(b, false)
	if _, err := bp.Alloc(); err != nil {
		t.Errorf("allocation after unpin failed: %v", err)
	}
	if bp.PinnedCount() != 1 {
		t.Errorf("pinned = %d", bp.PinnedCount())
	}
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	f := NewMemFile()
	bp := NewBufferPool(f, 2)
	fr, _ := bp.Alloc()
	bp.Unpin(fr, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	bp.Unpin(fr, false)
}

func newTree(t *testing.T, poolPages int) (*BTree, *BufferPool) {
	t.Helper()
	bp := NewBufferPool(NewMemFile(), poolPages)
	tree, err := NewBTree(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tree, bp
}

func TestBTreeBasics(t *testing.T) {
	tree, _ := newTree(t, 64)
	if _, found, _ := tree.Search(42); found {
		t.Error("empty tree found a key")
	}
	if err := tree.Insert(42, 420); err != nil {
		t.Fatal(err)
	}
	v, found, err := tree.Search(42)
	if err != nil || !found || v != 420 {
		t.Fatalf("Search = %v,%v,%v", v, found, err)
	}
	// Overwrite.
	if err := tree.Insert(42, 421); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tree.Search(42)
	if v != 421 {
		t.Errorf("overwrite failed: %d", v)
	}
	if tree.Len() != 1 {
		t.Errorf("Len = %d", tree.Len())
	}
}

func TestBTreeRandomAgainstMap(t *testing.T) {
	tree, bp := newTree(t, 256)
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(50000))
		v := rng.Uint64()
		ref[k] = v
		if err := tree.Insert(k, v); err != nil {
			t.Fatal(err)
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
		if err != nil {
			t.Fatal(err)
		}
		if !found || got != v {
			t.Fatalf("Search(%d) = %d,%v want %d", k, got, found, v)
		}
	}
	// Missing keys.
	for i := 0; i < 100; i++ {
		k := uint64(60000 + i)
		if _, found, _ := tree.Search(k); found {
			t.Fatalf("found non-existent key %d", k)
		}
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", bp.PinnedCount())
	}
}

func TestBTreeRangeScan(t *testing.T) {
	tree, _ := newTree(t, 256)
	for k := uint64(0); k < 5000; k += 2 { // even keys
		if err := tree.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tree.RangeScan(100, 120, func(k, v uint64) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tree.RangeScan(0, 5000, func(k, v uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBTreeDelete(t *testing.T) {
	tree, _ := newTree(t, 256)
	for k := uint64(0); k < 1000; k++ {
		tree.Insert(k, k)
	}
	ok, err := tree.Delete(500)
	if err != nil || !ok {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	if _, found, _ := tree.Search(500); found {
		t.Error("deleted key still found")
	}
	if ok, _ := tree.Delete(500); ok {
		t.Error("second delete reported success")
	}
	if tree.Len() != 999 {
		t.Errorf("Len = %d", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeSequentialInsertSplits(t *testing.T) {
	// Sequential keys force rightmost splits through multiple levels.
	tree, _ := newTree(t, 512)
	n := uint64(leafCap*internCap/4 + 1000)
	for k := uint64(0); k < n; k++ {
		if err := tree.Insert(k, k^0xFF); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot checks.
	for _, k := range []uint64{0, 1, n / 2, n - 1} {
		v, found, _ := tree.Search(k)
		if !found || v != k^0xFF {
			t.Fatalf("Search(%d) = %d,%v", k, v, found)
		}
	}
}

func TestClusteredFetch(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 1024)
	var recs []ClusterRecord
	// A 10x10 grid of unit rectangles; record i valid over [0, i%5+1).
	id := uint64(0)
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			recs = append(recs, ClusterRecord{
				ID:   id,
				MBR:  geom.MBR{MinX: float64(x), MinY: float64(y), MaxX: float64(x + 1), MaxY: float64(y + 1)},
				From: 0,
				To:   int32(id%5 + 1),
			})
			id++
		}
	}
	c, err := BuildClustered(bp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 100 {
		t.Errorf("Len = %d", c.Len())
	}
	// Fetch everything at level 0.
	seen := map[uint64]bool{}
	err = c.Fetch(geom.MBR{MinX: -1, MinY: -1, MaxX: 11, MaxY: 11}, 0, nil, func(r ClusterRecord) {
		if seen[r.ID] {
			t.Fatalf("record %d fetched twice", r.ID)
		}
		seen[r.ID] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Errorf("level-0 fetch saw %d records", len(seen))
	}
	// Level 4: only records with To == 5 (i%5 == 4).
	n := 0
	c.Fetch(geom.MBR{MinX: -1, MinY: -1, MaxX: 11, MaxY: 11}, 4, nil, func(r ClusterRecord) {
		if r.To <= 4 {
			t.Fatalf("record %d invalid at level 4", r.ID)
		}
		n++
	})
	if n != 20 {
		t.Errorf("level-4 fetch saw %d records, want 20", n)
	}
	// Spatial restriction.
	n = 0
	c.Fetch(geom.MBR{MinX: 0, MinY: 0, MaxX: 2.5, MaxY: 2.5}, 0, nil, func(r ClusterRecord) {
		n++
		if r.MBR.MinX > 2.5 || r.MBR.MinY > 2.5 {
			t.Fatalf("record %d outside region", r.ID)
		}
	})
	if n == 0 || n == 100 {
		t.Errorf("spatial fetch saw %d records", n)
	}
}

func TestClusteredPageAccounting(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 4096)
	var recs []ClusterRecord
	for i := 0; i < 5000; i++ {
		x := float64(i % 100)
		y := float64(i / 100)
		recs = append(recs, ClusterRecord{
			ID:  uint64(i),
			MBR: geom.MBR{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1},
			// Half the records die at level 1, the rest at level 10.
			From: 0,
			To:   int32(1 + (i%2)*9),
		})
	}
	c, err := BuildClustered(bp, recs)
	if err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	full := geom.MBR{MinX: -1, MinY: -1, MaxX: 101, MaxY: 101}
	c.Fetch(full, 0, nil, func(ClusterRecord) {})
	finePages := bp.Stats().Accesses
	bp.ResetStats()
	c.Fetch(full, 5, nil, func(ClusterRecord) {})
	coarsePages := bp.Stats().Accesses
	if coarsePages >= finePages {
		t.Errorf("coarse fetch (%d pages) should touch fewer pages than fine (%d)", coarsePages, finePages)
	}
	// A small region touches fewer pages than the full area.
	bp.ResetStats()
	c.Fetch(geom.MBR{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 0, nil, func(ClusterRecord) {})
	smallPages := bp.Stats().Accesses
	if smallPages >= finePages {
		t.Errorf("small-region fetch (%d) should touch fewer pages than full (%d)", smallPages, finePages)
	}
	// PagesFor agrees with an actual fetch.
	bp.ResetStats()
	pred := c.PagesFor(full, 0)
	c.Fetch(full, 0, nil, func(ClusterRecord) {})
	if int64(pred) != bp.Stats().Accesses {
		t.Errorf("PagesFor = %d, actual = %d", pred, bp.Stats().Accesses)
	}
}

// TestBufferPoolConcurrent hammers one pool from many goroutines (run under
// -race by the gate): concurrent Get/Unpin on overlapping page sets, each
// goroutine with its own IOAccount. Checks per-query accounts are exact and
// the pool-wide access counter equals their sum.
func TestBufferPoolConcurrent(t *testing.T) {
	file := NewMemFile()
	bp := NewBufferPool(file, 8)
	const pages = 16
	ids := make([]PageID, pages)
	for i := range ids {
		fr, err := bp.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		fr.Data[hdrSize] = byte(i)
		ids[i] = fr.ID
		bp.Unpin(fr, true)
	}
	bp.ResetStats()

	const workers = 8
	const reads = 200
	accts := make([]IOAccount, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := ids[(w*7+i)%pages]
				fr, err := bp.Get(id, &accts[w])
				if err != nil {
					t.Errorf("worker %d: Get(%d): %v", w, id, err)
					return
				}
				if got := fr.Data[hdrSize]; got != byte((w*7+i)%pages) {
					t.Errorf("worker %d: page %d holds %d", w, id, got)
				}
				bp.Unpin(fr, false)
			}
		}(w)
	}
	wg.Wait()

	var sum int64
	for w := range accts {
		if accts[w].Accesses != reads {
			t.Errorf("worker %d account: %d accesses, want %d", w, accts[w].Accesses, reads)
		}
		sum += accts[w].Accesses
	}
	if st := bp.Stats(); st.Accesses != sum {
		t.Errorf("pool stats %d accesses, want sum of accounts %d", st.Accesses, sum)
	}
	if got := bp.PinnedCount(); got != 0 {
		t.Errorf("PinnedCount = %d after all Unpins", got)
	}
}
