package sdn

import (
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

func rugged(size int, seed int64) *mesh.Mesh {
	return mesh.FromGrid(dem.Synthesize(dem.BH, size, 10, seed))
}

func TestExtractCrossLineFlat(t *testing.T) {
	t.Parallel()
	m := mesh.FromGrid(dem.NewGrid(5, 5, 10)) // flat 40x40
	cl := extractCrossLine(m, YAxis, 15, 1)
	if len(cl.Pts) < 2 {
		t.Fatalf("too few points: %d", len(cl.Pts))
	}
	for i, p := range cl.Pts {
		if math.Abs(p.Y-15) > 1e-9 {
			t.Errorf("point %d not on plane: %v", i, p)
		}
		if p.Z != 0 {
			t.Errorf("flat terrain point has z=%v", p.Z)
		}
		if i > 0 && cl.Pts[i-1].X >= p.X {
			t.Errorf("points not ordered by x at %d", i)
		}
	}
	// Spans the full extent.
	if cl.Pts[0].X > 1e-9 || cl.Pts[len(cl.Pts)-1].X < 40-1e-9 {
		t.Errorf("line does not span extent: [%v, %v]", cl.Pts[0].X, cl.Pts[len(cl.Pts)-1].X)
	}
	// X-axis family too.
	clx := extractCrossLine(m, XAxis, 25, 1)
	for _, p := range clx.Pts {
		if math.Abs(p.X-25) > 1e-9 {
			t.Errorf("x-plane point off plane: %v", p)
		}
	}
}

func TestDPRanksNested(t *testing.T) {
	t.Parallel()
	m := rugged(8, 3)
	cl := extractCrossLine(m, YAxis, 35, 1)
	n := len(cl.Pts)
	if n < 4 {
		t.Skip("line too short")
	}
	if cl.Rank[0] != 0 || cl.Rank[n-1] != 1 {
		t.Errorf("endpoint ranks = %d, %d", cl.Rank[0], cl.Rank[n-1])
	}
	seen := make(map[int]bool)
	for _, r := range cl.Rank {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("ranks are not a permutation: %v", cl.Rank)
		}
		seen[r] = true
	}
	prev := map[int]bool{}
	for _, res := range []float64{0.25, 0.5, 0.75, 1.0} {
		idx := cl.Retained(res)
		cur := map[int]bool{}
		for _, i := range idx {
			cur[i] = true
		}
		for i := range prev {
			if !cur[i] {
				t.Fatalf("retention not nested at %v: lost %d", res, i)
			}
		}
		prev = cur
	}
	if got := len(cl.Retained(1.0)); got != n {
		t.Errorf("full retention = %d, want %d", got, n)
	}
}

func TestSegmentBoxesConservative(t *testing.T) {
	t.Parallel()
	m := rugged(8, 5)
	cl := extractCrossLine(m, YAxis, 40, 1)
	region := m.Extent()
	for _, res := range []float64{0.25, 0.5, 1.0} {
		for _, s := range cl.Segments(res, region) {
			// The segment box must contain every original point in span.
			for p := s.I; p <= s.J; p++ {
				sub := geom.Box3Of(cl.Pts[p])
				if !s.Box.ContainsBox(sub) {
					t.Fatalf("res %v: box %v misses point %v", res, s.Box, cl.Pts[p])
				}
			}
		}
	}
}

func TestBuildMSDN(t *testing.T) {
	t.Parallel()
	m := rugged(8, 7)
	ms := BuildMSDN(m, 0) // default spacing = average edge length
	if ms.NumLines() == 0 || ms.NumPoints() == 0 {
		t.Fatalf("empty MSDN: %d lines, %d points", ms.NumLines(), ms.NumPoints())
	}
	if ms.Spacing <= 0 {
		t.Errorf("spacing = %v", ms.Spacing)
	}
	// Lines are ordered by coordinate.
	for i := 1; i < len(ms.YLines); i++ {
		if ms.YLines[i-1].Coord >= ms.YLines[i].Coord {
			t.Fatal("y-lines out of order")
		}
	}
}

func TestLowerBoundFlat(t *testing.T) {
	t.Parallel()
	m := mesh.FromGrid(dem.NewGrid(9, 9, 10))
	ms := BuildMSDN(m, 10)
	a := geom.Vec3{X: 5, Y: 40, Z: 0}
	b := geom.Vec3{X: 75, Y: 42, Z: 0}
	est := ms.LowerBound(a, b, m.Extent(), 1.0)
	euclid := a.Dist(b)
	if est.LB < euclid-1e-9 {
		t.Errorf("lb %v below Euclidean %v", est.LB, euclid)
	}
	// On flat terrain the surface distance IS the Euclidean distance, so
	// the bound cannot exceed it either.
	if est.LB > euclid+1e-9 {
		t.Errorf("lb %v above flat surface distance %v", est.LB, euclid)
	}
}

func TestLowerBoundBelowExact(t *testing.T) {
	t.Parallel()
	m := rugged(8, 11)
	loc := mesh.NewLocator(m)
	solver := geodesic.NewSolver(m)
	ms := BuildMSDN(m, 0)
	ext := m.Extent()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, err := mesh.MakeSurfacePoint(m, loc, pa)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mesh.MakeSurfacePoint(m, loc, pb)
		if err != nil {
			t.Fatal(err)
		}
		exact := solver.Distance(a, b)
		for _, res := range []float64{0.25, 0.5, 1.0} {
			est := ms.LowerBound(a.Pos, b.Pos, ext, res)
			if est.LB > exact+1e-6 {
				t.Fatalf("res %v: lb %v exceeds exact %v", res, est.LB, exact)
			}
			if est.LB < a.Pos.Dist(b.Pos)-1e-9 {
				t.Fatalf("res %v: lb %v below Euclidean", res, est.LB)
			}
		}
	}
}

func TestLowerBoundMonotoneNested(t *testing.T) {
	t.Parallel()
	m := rugged(8, 17)
	ms := BuildMSDN(m, 0)
	ext := m.Extent()
	loc := mesh.NewLocator(m)
	rng := rand.New(rand.NewSource(19))
	// Fixed plane set (step 1): the bound is monotone in point resolution.
	ladder := []float64{0.25, 0.375, 0.5, 0.75, 1.0}
	for trial := 0; trial < 10; trial++ {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, errA := mesh.MakeSurfacePoint(m, loc, pa)
		b, errB := mesh.MakeSurfacePoint(m, loc, pb)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		prev := 0.0
		var sc Scratch
		for _, res := range ladder {
			est := ms.lowerBoundFixed(&sc, a.Pos, b.Pos, ext, res, 1, nil, 0)
			if est.LB < prev-1e-9 {
				t.Fatalf("lb not monotone at res %v: %v < %v", res, est.LB, prev)
			}
			prev = est.LB
		}
	}
}

func TestLowerBoundEnvelope(t *testing.T) {
	t.Parallel()
	m := rugged(8, 23)
	ms := BuildMSDN(m, 0)
	ext := m.Extent()
	loc := mesh.NewLocator(m)
	ap, errA := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: ext.MinX + 5, Y: ext.MinY + 8})
	bp, errB := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: ext.MaxX - 6, Y: ext.MaxY - 9})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a, b := ap.Pos, bp.Pos
	full := ms.LowerBound(a, b, ext, 0.5)
	if len(full.Path) == 0 {
		t.Fatal("expected a path")
	}
	env := ms.LowerBoundEnvelope(a, b, ext, 0.5, full.Path, ms.Spacing)
	if env.LB < full.LB-1e-9 {
		t.Errorf("envelope lb %v below full lb %v", env.LB, full.LB)
	}
	if env.Segments > full.Segments {
		t.Errorf("envelope examined more segments (%d) than full (%d)", env.Segments, full.Segments)
	}
	// Empty previous path falls back to the full computation.
	fallback := ms.LowerBoundEnvelope(a, b, ext, 0.5, nil, ms.Spacing)
	if math.Abs(fallback.LB-full.LB) > 1e-9 {
		t.Errorf("fallback lb %v != full %v", fallback.LB, full.LB)
	}
}

func TestLowerBoundNoPlanesBetween(t *testing.T) {
	t.Parallel()
	m := rugged(8, 29)
	ms := BuildMSDN(m, 0)
	a := geom.Vec3{X: 10, Y: 10, Z: 5}
	b := geom.Vec3{X: 10.5, Y: 10.2, Z: 5}
	est := ms.LowerBound(a, b, m.Extent(), 1.0)
	if math.Abs(est.LB-a.Dist(b)) > 1e-9 {
		t.Errorf("close points lb = %v, want Euclidean %v", est.LB, a.Dist(b))
	}
}

func TestPlaneStep(t *testing.T) {
	t.Parallel()
	cases := map[float64]int{1.0: 1, 0.75: 1, 0.5: 2, 0.375: 3, 0.25: 4}
	for res, want := range cases {
		if got := planeStepFor(res); got != want {
			t.Errorf("planeStepFor(%v) = %d, want %d", res, got, want)
		}
	}
}

func TestFamilyChoice(t *testing.T) {
	t.Parallel()
	m := rugged(8, 31)
	ms := BuildMSDN(m, 0)
	// Mostly-horizontal pair → XAxis planes (perpendicular to travel).
	lines, _, _ := ms.chooseFamily(geom.Vec3{X: 0, Y: 40}, geom.Vec3{X: 80, Y: 42})
	if len(lines) > 0 && lines[0].Axis != XAxis {
		t.Error("horizontal travel should use x-planes")
	}
	lines, _, _ = ms.chooseFamily(geom.Vec3{X: 40, Y: 0}, geom.Vec3{X: 42, Y: 80})
	if len(lines) > 0 && lines[0].Axis != YAxis {
		t.Error("vertical travel should use y-planes")
	}
}

func TestLowerBoundBothNeverWorse(t *testing.T) {
	t.Parallel()
	m := rugged(8, 41)
	ms := BuildMSDN(m, 0)
	ext := m.Extent()
	loc := mesh.NewLocator(m)
	solver := geodesic.NewSolver(m)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, errA := mesh.MakeSurfacePoint(m, loc, pa)
		b, errB := mesh.MakeSurfacePoint(m, loc, pb)
		if errA != nil || errB != nil {
			continue
		}
		single := ms.LowerBound(a.Pos, b.Pos, ext, 1.0)
		both := ms.LowerBoundBoth(a.Pos, b.Pos, ext, 1.0)
		if both.LB < single.LB-1e-9 {
			t.Fatalf("both-families lb %v below single-family %v", both.LB, single.LB)
		}
		// Still a valid lower bound.
		exact := solver.Distance(a, b)
		if both.LB > exact+1e-6 {
			t.Fatalf("both-families lb %v exceeds exact %v", both.LB, exact)
		}
	}
}

func TestTransitionBoxGap(t *testing.T) {
	t.Parallel()
	b := geom.Box3Of(geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: 1, Y: 2, Z: 3})
	o := geom.Box3Of(geom.Vec3{X: 4, Y: 0, Z: 0}, geom.Vec3{X: 5, Y: 2, Z: 3})
	segs := []Segment{{Box: b}, {Box: o}}
	dist := []float64{0, 0}
	if got, j := transition(segs, dist, 0, 1, &o); got != 3 || j != 0 {
		t.Errorf("gap = %v via %d, want 3 via 0", got, j)
	}
	if got, j := transition(segs, dist, 0, 1, &b); got != 0 || j != 0 {
		t.Errorf("self gap = %v via %d, want 0 via 0", got, j)
	}
	// The chain length adds to the gap; ties keep the first index.
	dist = []float64{5, 2}
	if got, j := transition(segs, dist, 0, 2, &o); got != 2 || j != 1 {
		t.Errorf("best = %v via %d, want 2 via 1", got, j)
	}
	dist = []float64{2, 2}
	if got, j := transition(segs, dist, 0, 2, &b); got != 2 || j != 0 {
		t.Errorf("tie = %v via %d, want 2 via 0", got, j)
	}
	// A gap on every axis: sqrt(3² + 4² + 12²) = 13.
	far := geom.Box3Of(geom.Vec3{X: 4, Y: 6, Z: 15}, geom.Vec3{X: 9, Y: 9, Z: 20})
	if got, _ := transition(segs, []float64{0, 0}, 0, 1, &far); got != 13 {
		t.Errorf("3-axis gap = %v, want 13", got)
	}
	if got, j := transition(segs, dist, 1, 1, &b); !math.IsInf(got, 1) || j != -1 {
		t.Errorf("empty layer = %v via %d, want +Inf via -1", got, j)
	}
}

// TestSpanBoxMatchesExtend checks the comparison-built span boxes bit for
// bit against folding Box3.ExtendPoint over the same points.
func TestSpanBoxMatchesExtend(t *testing.T) {
	t.Parallel()
	m := rugged(16, 37)
	ms := BuildMSDN(m, 0)
	for _, fam := range [][]*CrossLine{ms.XLines, ms.YLines} {
		for _, cl := range fam {
			for _, s := range cl.Segments(0.5, m.Extent()) {
				want := geom.EmptyBox3()
				for _, p := range cl.Pts[s.I : s.J+1] {
					want = want.ExtendPoint(p)
				}
				if s.Box != want {
					t.Fatalf("line %v span [%d,%d]: box %+v, want %+v", cl.Coord, s.I, s.J, s.Box, want)
				}
			}
		}
	}
}
