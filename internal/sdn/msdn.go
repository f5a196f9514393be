package sdn

import (
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// MSDN holds both cutting-plane families over a terrain at full resolution;
// lower resolutions are derived at query time by nested point retention and
// by thinning the plane set (the paper: "for a request of low resolution
// SDN data, we reduce the density of crossing lines selected too").
type MSDN struct {
	XLines []*CrossLine // ordered by plane coordinate
	YLines []*CrossLine
	// Spacing is the plane interval; the paper recommends the average edge
	// length of the original mesh for the densest setting.
	Spacing float64
}

// BuildMSDN extracts both plane families with the given spacing. A
// non-positive spacing defaults to the mesh's average edge length.
func BuildMSDN(m *mesh.Mesh, spacing float64) *MSDN {
	return BuildMSDNSubdiv(m, spacing, DefaultSubdiv)
}

// DefaultSubdiv is the default crossing-line subdivision: each intra-face
// portion of a crossing line contributes this many points, keeping segment
// boxes finer than the plane spacing so that transverse and vertical
// movement between planes shows up in the chained bound.
const DefaultSubdiv = 4

// BuildMSDNSubdiv is BuildMSDN with an explicit subdivision factor.
func BuildMSDNSubdiv(m *mesh.Mesh, spacing float64, subdiv int) *MSDN {
	ext := m.Extent()
	if spacing <= 0 {
		spacing = m.AverageEdgeLength()
	}
	if subdiv < 1 {
		subdiv = 1
	}
	ms := &MSDN{Spacing: spacing}
	for x := ext.MinX + spacing; x < ext.MaxX-spacing/2; x += spacing {
		if cl := extractCrossLine(m, XAxis, x, subdiv); len(cl.Pts) >= 2 {
			ms.XLines = append(ms.XLines, cl)
		}
	}
	for y := ext.MinY + spacing; y < ext.MaxY-spacing/2; y += spacing {
		if cl := extractCrossLine(m, YAxis, y, subdiv); len(cl.Pts) >= 2 {
			ms.YLines = append(ms.YLines, cl)
		}
	}
	return ms
}

// NumLines returns the total number of crossing lines stored.
func (ms *MSDN) NumLines() int { return len(ms.XLines) + len(ms.YLines) }

// NumPoints returns the total number of crossing-line points stored.
func (ms *MSDN) NumPoints() int {
	var n int
	for _, l := range ms.XLines {
		n += len(l.Pts)
	}
	for _, l := range ms.YLines {
		n += len(l.Pts)
	}
	return n
}

// chooseFamily applies the paper's heuristic: when the (x,y) direction
// between the points makes an angle below 45° with the x-axis, travel is
// mostly along x, so y-perpendicular planes (XAxis family) separate them
// best; otherwise use YAxis planes.
func (ms *MSDN) chooseFamily(a, b geom.Vec3) (lines []*CrossLine, lo, hi float64) {
	dx := math.Abs(b.X - a.X)
	dy := math.Abs(b.Y - a.Y)
	if dx >= dy {
		lo, hi = math.Min(a.X, b.X), math.Max(a.X, b.X)
		return ms.XLines, lo, hi
	}
	lo, hi = math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
	return ms.YLines, lo, hi
}

// linesBetween returns the planes with coordinate strictly between lo and
// hi, thinned by step (every step-th plane) but always at least one when any
// exists.
func linesBetween(lines []*CrossLine, lo, hi float64, step int) []*CrossLine {
	return linesBetweenInto(lines, lo, hi, step, nil)
}

// linesBetweenInto is linesBetween filling dst (truncated first); thinning
// compacts in place (dst[n] = dst[i] with i >= n), so the warm query path
// reuses one buffer across calls.
func linesBetweenInto(lines []*CrossLine, lo, hi float64, step int, dst []*CrossLine) []*CrossLine {
	between := dst[:0]
	for _, l := range lines {
		if l.Coord > lo && l.Coord < hi {
			between = append(between, l)
		}
	}
	if step <= 1 || len(between) == 0 {
		return between
	}
	n := 0
	for i := 0; i < len(between); i += step {
		between[n] = between[i]
		n++
	}
	return between[:n]
}

// planeStepFor maps an SDN resolution to a plane-thinning step.
func planeStepFor(resolution float64) int {
	if resolution >= 1 {
		return 1
	}
	step := int(math.Round(1 / resolution))
	if step < 1 {
		step = 1
	}
	return step
}
