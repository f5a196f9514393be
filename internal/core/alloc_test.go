package core

import (
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/workload"
)

// TestWarmSessionKNNAllocFree pins the flat-buffer refactor's core promise:
// a warm Session (scratch at its high-water mark, uninstrumented database,
// tracing off) answers MR3 queries without a single heap allocation. Any
// regression — a fresh closure, a map, an append past capacity on the query
// path — shows up here as a non-zero count.
func TestWarmSessionKNNAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession(nil)
	// Warm-up: let every retained buffer (candidate slab, CSR scratch,
	// SDN chain DP, fetch id lists, phase slice) reach its final size.
	for _, q := range qs {
		if _, err := s.MR3(q, 5, S2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.MR3(qs[qi%len(qs)], 5, S2, Options{}); err != nil {
			t.Fatal(err)
		}
		qi++
	}); n != 0 {
		t.Fatalf("warm Session MR3 allocates %.1f times per query, want 0", n)
	}
}

// TestWarmSessionRangeAllocFree is the same guard for the surface range
// query, which shares the ranker and fetch scratch with MR3.
func TestWarmSessionRangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession(nil)
	radius := 250.0
	for _, q := range qs {
		if _, err := s.SurfaceRange(q, radius, S2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.SurfaceRange(qs[qi%len(qs)], radius, S2, Options{}); err != nil {
			t.Fatal(err)
		}
		qi++
	}); n != 0 {
		t.Fatalf("warm Session SurfaceRange allocates %.1f times per query, want 0", n)
	}
}

// TestWarmSessionShardFiltersAllocFree pins the shard fabric's 2-D filters
// (MR3 steps 1 and 3 run alone) to the session's scratch: once warm,
// KNN2D and Range2D each answer without allocating, on a quiesced epoch and
// on one carrying an update delta.
func TestWarmSessionShardFiltersAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession(nil)
	for _, delta := range []bool{false, true} {
		if delta {
			moved := db.Objects()[0]
			moved.ID = 1 << 40
			db.ObjectStore().Upsert([]workload.Object{moved})
		}
		for _, q := range qs { // warm
			s.KNN2D(q.XY(), 5)
			s.Range2D(q.XY(), 250)
		}
		qi := 0
		if n := testing.AllocsPerRun(20, func() {
			if objs, _ := s.KNN2D(qs[qi%len(qs)].XY(), 5); len(objs) != 5 {
				t.Fatalf("KNN2D returned %d objects, want 5", len(objs))
			}
			qi++
		}); n != 0 {
			t.Errorf("delta=%t: warm Session KNN2D allocates %.1f times per call, want 0", delta, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			s.Range2D(qs[qi%len(qs)].XY(), 250)
			qi++
		}); n != 0 {
			t.Errorf("delta=%t: warm Session Range2D allocates %.1f times per call, want 0", delta, n)
		}
	}
}
