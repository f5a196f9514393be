package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyMBR(t *testing.T) {
	t.Parallel()
	e := EmptyMBR()
	if !e.IsEmpty() {
		t.Fatal("EmptyMBR not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty MBR should have zero extent")
	}
	if e.Contains(Vec2{0, 0}) {
		t.Error("empty MBR should contain nothing")
	}
	m := MBR{0, 0, 1, 1}
	if got := e.Union(m); got != m {
		t.Errorf("empty.Union = %v", got)
	}
	if got := m.Union(e); got != m {
		t.Errorf("Union(empty) = %v", got)
	}
}

func TestMBROf(t *testing.T) {
	t.Parallel()
	m := MBROf(Vec2{1, 5}, Vec2{-2, 3}, Vec2{4, -1})
	want := MBR{-2, -1, 4, 5}
	if m != want {
		t.Errorf("MBROf = %v, want %v", m, want)
	}
	m3 := MBROf3(Vec3{1, 2, 99}, Vec3{3, 0, -50})
	if m3 != (MBR{1, 0, 3, 2}) {
		t.Errorf("MBROf3 = %v", m3)
	}
}

func TestMBRIntersect(t *testing.T) {
	t.Parallel()
	a := MBR{0, 0, 2, 2}
	b := MBR{1, 1, 3, 3}
	c := MBR{5, 5, 6, 6}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	if got := a.Intersection(b); got != (MBR{1, 1, 2, 2}) {
		t.Errorf("Intersection = %v", got)
	}
	if got := a.Intersection(c); !got.IsEmpty() {
		t.Errorf("Intersection of disjoint should be empty, got %v", got)
	}
	// Touching edges intersect.
	d := MBR{2, 0, 4, 2}
	if !a.Intersects(d) {
		t.Error("touching rectangles should intersect")
	}
}

func TestMBRContains(t *testing.T) {
	t.Parallel()
	m := MBR{0, 0, 10, 10}
	if !m.Contains(Vec2{5, 5}) || !m.Contains(Vec2{0, 0}) || !m.Contains(Vec2{10, 10}) {
		t.Error("Contains failed on interior/boundary")
	}
	if m.Contains(Vec2{10.01, 5}) {
		t.Error("Contains should reject exterior point")
	}
	if !m.ContainsMBR(MBR{1, 1, 9, 9}) {
		t.Error("ContainsMBR interior")
	}
	if m.ContainsMBR(MBR{1, 1, 11, 9}) {
		t.Error("ContainsMBR overflow")
	}
	if !m.ContainsMBR(EmptyMBR()) {
		t.Error("every MBR contains the empty MBR")
	}
}

func TestMBRDistances(t *testing.T) {
	t.Parallel()
	m := MBR{0, 0, 2, 2}
	if got := m.DistToPoint(Vec2{1, 1}); got != 0 {
		t.Errorf("inside dist = %v", got)
	}
	if got := m.DistToPoint(Vec2{5, 2}); got != 3 {
		t.Errorf("right dist = %v", got)
	}
	if got := m.DistToPoint(Vec2{5, 6}); got != 5 {
		t.Errorf("corner dist = %v (want 5)", got)
	}
	o := MBR{5, 0, 6, 2}
	if got := m.DistToMBR(o); got != 3 {
		t.Errorf("box-box dist = %v", got)
	}
	if got := m.DistToMBR(MBR{1, 1, 3, 3}); got != 0 {
		t.Errorf("overlapping box dist = %v", got)
	}
	diag := MBR{5, 6, 7, 8}
	if got := m.DistToMBR(diag); got != 5 {
		t.Errorf("diag box dist = %v (want 5)", got)
	}
}

func TestMBRExpand(t *testing.T) {
	t.Parallel()
	m := MBR{0, 0, 2, 2}
	if got := m.Expand(1); got != (MBR{-1, -1, 3, 3}) {
		t.Errorf("Expand = %v", got)
	}
	if got := m.Expand(-2); !got.IsEmpty() {
		t.Errorf("over-shrunk MBR should be empty, got %v", got)
	}
}

func TestOverlapFraction(t *testing.T) {
	t.Parallel()
	a := MBR{0, 0, 10, 10}
	b := MBR{0, 0, 10, 10}
	if got := a.OverlapFraction(b); !almostEq(got, 1, 1e-12) {
		t.Errorf("identical overlap = %v", got)
	}
	c := MBR{5, 0, 15, 10}
	if got := a.OverlapFraction(c); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("half overlap = %v", got)
	}
	d := MBR{20, 20, 30, 30}
	if got := a.OverlapFraction(d); got != 0 {
		t.Errorf("disjoint overlap = %v", got)
	}
	// Smaller rectangle fully inside: fraction 1 relative to the smaller.
	e := MBR{1, 1, 2, 2}
	if got := a.OverlapFraction(e); !almostEq(got, 1, 1e-12) {
		t.Errorf("contained overlap = %v", got)
	}
}

func TestBox3(t *testing.T) {
	t.Parallel()
	b := Box3Of(Vec3{0, 0, 0}, Vec3{1, 2, 3})
	if b.IsEmpty() {
		t.Fatal("box should not be empty")
	}
	o := Box3Of(Vec3{4, 0, 0}, Vec3{5, 2, 3})
	if got := b.DistToPoint(Vec3{1, 2, 7}); got != 4 {
		t.Errorf("DistToPoint = %v", got)
	}
	if got := b.XY(); got != (MBR{0, 0, 1, 2}) {
		t.Errorf("XY = %v", got)
	}
	u := b.Union(o)
	if !u.ContainsBox(b) || !u.ContainsBox(o) {
		t.Error("union must contain both boxes")
	}
	if !b.ContainsBox(EmptyBox3()) {
		t.Error("every box contains the empty box")
	}
}

// Property: union contains both inputs, intersection is contained in both.
func TestMBRUnionIntersectionProps(t *testing.T) {
	t.Parallel()
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := MBR{sanitize(ax), sanitize(ay), sanitize(ax) + math.Abs(sanitize(aw)), sanitize(ay) + math.Abs(sanitize(ah))}
		b := MBR{sanitize(bx), sanitize(by), sanitize(bx) + math.Abs(sanitize(bw)), sanitize(by) + math.Abs(sanitize(bh))}
		u := a.Union(b)
		if !u.ContainsMBR(a) || !u.ContainsMBR(b) {
			return false
		}
		i := a.Intersection(b)
		if !i.IsEmpty() && (!a.ContainsMBR(i) || !b.ContainsMBR(i)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DistToMBR is a lower bound on the distance between any points of
// the two rectangles (tested via corners and center).
func TestMBRDistLowerBound(t *testing.T) {
	t.Parallel()
	f := func(ax, ay, bx, by float64) bool {
		a := MBR{sanitize(ax), sanitize(ay), sanitize(ax) + 1, sanitize(ay) + 1}
		b := MBR{sanitize(bx), sanitize(by), sanitize(bx) + 1, sanitize(by) + 1}
		d := a.DistToMBR(b)
		pa := []Vec2{{a.MinX, a.MinY}, {a.MaxX, a.MaxY}, a.Center()}
		pb := []Vec2{{b.MinX, b.MinY}, {b.MaxX, b.MaxY}, b.Center()}
		for _, p := range pa {
			for _, q := range pb {
				if p.Dist(q) < d-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
