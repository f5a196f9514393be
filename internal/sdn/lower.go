package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// LowerEstimate is the result of one SDN lower-bound estimation.
type LowerEstimate struct {
	LB float64
	// Path holds the SDN segments realising the bound, one per crossing
	// line; MR3's dummy-lower-bound optimisation thickens this path into an
	// envelope for the next, cheaper estimate. When the estimate was
	// produced through a Scratch, Path aliases that scratch and is valid
	// only until its next use — copy it to keep it.
	Path []Segment
	// Segments counts the SDN nodes examined (a CPU-cost proxy).
	Segments int
}

// Scratch holds the reusable buffers of the lower-bound estimator, so a warm
// estimation allocates nothing. The layered chain DP runs over one arena:
// every kept layer's segments are appended to segs, with dist/prev parallel
// to it (prev holds absolute arena indices, -1 on the first layer), instead
// of one segs/dist/prev triple allocated per layer. A Scratch is owned by a
// single goroutine; zero value is ready to use.
type Scratch struct {
	between  []*CrossLine
	envBoxes []geom.MBR
	idx      []int
	segs     []Segment
	dist     []float64
	prev     []int32
	path     []Segment
	pathAlt  []Segment // parks the first family's path in LowerBoundBothScratch
}

// LowerBound estimates a lower bound on the surface distance between a and
// b at the given SDN resolution, restricted to region (pass the search
// ellipse's MBR; the bound is valid for any path staying inside region,
// in particular for every path no longer than the current upper bound when
// region is that upper bound's ellipse).
//
// The Euclidean distance is always a valid floor, so the result is never
// below it.
func (ms *MSDN) LowerBound(a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	var sc Scratch
	return ms.lowerBound(&sc, a, b, region, resolution, nil, 0)
}

// LowerBoundScratch is LowerBound running over reusable scratch. The
// returned Path aliases sc.
func (ms *MSDN) LowerBoundScratch(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	return ms.lowerBound(sc, a, b, region, resolution, nil, 0)
}

// LowerBoundBoth estimates with BOTH plane families and returns the larger
// bound. The paper's 45° heuristic picks a single family; since each
// family's chain is independently valid, their maximum is a strictly
// tighter (never worse) bound at roughly twice the cost. Offered as an
// extension; see the BenchmarkAblationBothFamilies targets.
func (ms *MSDN) LowerBoundBoth(a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	var sc Scratch
	return ms.LowerBoundBothScratch(&sc, a, b, region, resolution)
}

// LowerBoundBothScratch is LowerBoundBoth running over reusable scratch.
func (ms *MSDN) LowerBoundBothScratch(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	first := ms.lowerBound(sc, a, b, region, resolution, nil, 0)
	if len(first.Path) > 0 {
		// The second run rebuilds sc.path; park the first family's path.
		sc.pathAlt = append(sc.pathAlt[:0], first.Path...)
		first.Path = sc.pathAlt
	}
	// Evaluate the family the heuristic did NOT choose by swapping the
	// dominant axis: temporarily flip the comparison via a mirrored call.
	other := ms.lowerBoundFamily(sc, a, b, region, resolution, !ms.prefersX(a, b))
	if other.LB > first.LB {
		other.Segments += first.Segments
		return other
	}
	first.Segments += other.Segments
	return first
}

// prefersX reports which family the 45° heuristic would choose.
func (ms *MSDN) prefersX(a, b geom.Vec3) bool {
	return math.Abs(b.X-a.X) >= math.Abs(b.Y-a.Y)
}

// lowerBoundFamily runs the chain over an explicit family choice.
func (ms *MSDN) lowerBoundFamily(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, useX bool) LowerEstimate {
	euclid := a.Dist(b)
	var lines []*CrossLine
	var lo, hi float64
	if useX {
		lines = ms.XLines
		lo, hi = math.Min(a.X, b.X), math.Max(a.X, b.X)
	} else {
		lines = ms.YLines
		lo, hi = math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
	}
	sc.between = linesBetweenInto(lines, lo, hi, planeStepFor(resolution), sc.between)
	if len(sc.between) == 0 {
		return LowerEstimate{LB: euclid}
	}
	return ms.chainOver(sc, a, b, region, resolution, nil, 0)
}

// LowerBoundEnvelope is the paper's "dummy lower bound" (§4.2.2): it
// restricts the SDN to an envelope around the previous bound's path
// (thickened by margin), which can only increase the estimate. If the
// resulting range still fails to rank the candidate, the true lower bound at
// this resolution cannot either, so MR3 may skip straight to the next
// resolution.
func (ms *MSDN) LowerBoundEnvelope(a, b geom.Vec3, region geom.MBR, resolution float64, prev []Segment, margin float64) LowerEstimate {
	var sc Scratch
	return ms.LowerBoundEnvelopeScratch(&sc, a, b, region, resolution, prev, margin)
}

// LowerBoundEnvelopeScratch is LowerBoundEnvelope running over reusable
// scratch. prev must not alias sc's own path buffers (pass a caller-owned
// copy of the previous path).
func (ms *MSDN) LowerBoundEnvelopeScratch(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, prev []Segment, margin float64) LowerEstimate {
	if len(prev) == 0 {
		return ms.lowerBound(sc, a, b, region, resolution, nil, 0)
	}
	return ms.lowerBound(sc, a, b, region, resolution, prev, margin)
}

func (ms *MSDN) lowerBound(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, envelope []Segment, margin float64) LowerEstimate {
	return ms.lowerBoundFixed(sc, a, b, region, resolution, planeStepFor(resolution), envelope, margin)
}

// lowerBoundFixed runs the estimation with an explicit plane-thinning step.
// For a FIXED step the bound is monotone in the point resolution (boxes only
// shrink); across different steps the bound is still always valid but need
// not be pointwise monotone, which is why MR3 keeps the running maximum.
func (ms *MSDN) lowerBoundFixed(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, step int, envelope []Segment, margin float64) LowerEstimate {
	lines, lo, hi := ms.chooseFamily(a, b)
	sc.between = linesBetweenInto(lines, lo, hi, step, sc.between)
	if len(sc.between) == 0 {
		return LowerEstimate{LB: a.Dist(b)}
	}
	return ms.chainOver(sc, a, b, region, resolution, envelope, margin)
}

// chainOver runs the layered chain DP over the ordered plane family subset
// in sc.between. All per-layer state lives in sc's arena buffers.
func (ms *MSDN) chainOver(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, envelope []Segment, margin float64) LowerEstimate {
	between := sc.between
	euclid := a.Dist(b)
	// Order the planes from a's side to b's side.
	var aCoord float64
	if between[0].Axis == XAxis {
		aCoord = a.X
	} else {
		aCoord = a.Y
	}
	if math.Abs(between[0].Coord-aCoord) > math.Abs(between[len(between)-1].Coord-aCoord) {
		reverse(between)
	}

	// Empty envelope boxes touch nothing; dropping them here lets the
	// per-segment test skip the emptiness checks.
	hasEnv := len(envelope) > 0
	sc.envBoxes = sc.envBoxes[:0]
	for _, s := range envelope {
		if e := s.Box.XY().Expand(margin); !e.IsEmpty() {
			sc.envBoxes = append(sc.envBoxes, e)
		}
	}

	// Layered dynamic program: dist[k] = shortest chain from a to arena
	// segment k. Each kept layer occupies a contiguous arena span; prev
	// holds absolute indices into the previous span (-1 on the first).
	est := LowerEstimate{}
	sc.segs = sc.segs[:0]
	prevStart := -1 // arena start of the previous kept layer
	for _, cl := range between {
		segStart := len(sc.segs)
		sc.segs, sc.idx = cl.segmentsInto(resolution, region, sc.idx, sc.segs)
		if hasEnv {
			kept := segStart
			for p := segStart; p < len(sc.segs); p++ {
				if envIntersects(sc.envBoxes, &sc.segs[p].Box) {
					sc.segs[kept] = sc.segs[p]
					kept++
				}
			}
			sc.segs = sc.segs[:kept]
		}
		est.Segments += len(sc.segs) - segStart
		if len(sc.segs) == segStart {
			// The region cut this line entirely; a path could still cross
			// it outside the clipped area, so skip the layer (weakens but
			// never invalidates the bound).
			continue
		}
		end := len(sc.segs)
		sc.dist = growF64(sc.dist, end)
		sc.prev = growI32(sc.prev, end)
		if prevStart < 0 {
			for p := segStart; p < end; p++ {
				sc.dist[p] = sc.segs[p].Box.DistToPoint(a)
				sc.prev[p] = -1
			}
		} else {
			for p := segStart; p < end; p++ {
				sc.dist[p], sc.prev[p] = transition(sc.segs, sc.dist, prevStart, segStart, &sc.segs[p].Box)
			}
		}
		prevStart = segStart
	}
	if prevStart < 0 {
		return LowerEstimate{LB: euclid, Segments: est.Segments}
	}
	// Close the chain at b over the last kept layer.
	best := math.Inf(1)
	bestK := -1
	for k := prevStart; k < len(sc.segs); k++ {
		if d := sc.dist[k] + sc.segs[k].Box.DistToPoint(b); d < best {
			best = d
			bestK = k
		}
	}
	if bestK < 0 {
		est.LB = euclid
		return est
	}
	// The Euclidean distance is always a valid floor.
	est.LB = math.Max(best, euclid)
	// Reconstruct the path for the envelope optimisation: the prev chain
	// walks one layer back per step and ends at -1 on the first layer.
	sc.path = sc.path[:0]
	for k := bestK; k >= 0; k = int(sc.prev[k]) {
		sc.path = append(sc.path, sc.segs[k])
	}
	reverseSegs(sc.path)
	est.Path = sc.path
	return est
}

// transition is the layer-transition kernel of the chain DP: the shortest
// chain from a into a segment with box o through one segment of the
// previous layer (arena span [lo, hi) of segs, with chain lengths in dist),
// weighted by "the minimum Euclidean distance between the MBRs of the two
// line segments". It returns that length and the arena index realising it
// (the first one on ties, so paths are deterministic; -1 if none does).
// The loop makes no calls: each axis gap is computed inline, and no box is
// tested for emptiness, since every segment spans I < J and its box holds
// at least two points.
func transition(segs []Segment, dist []float64, lo, hi int, o *geom.Box3) (float64, int32) {
	oMinX, oMinY, oMinZ := o.Min.X, o.Min.Y, o.Min.Z
	oMaxX, oMaxY, oMaxZ := o.Max.X, o.Max.Y, o.Max.Z
	prev, dist := segs[lo:hi], dist[lo:hi]
	best := math.Inf(1)
	bestJ := int32(-1)
	for j := range prev {
		b := &prev[j].Box
		var dx, dy, dz float64
		if b.Max.X < oMinX {
			dx = oMinX - b.Max.X
		} else if oMaxX < b.Min.X {
			dx = b.Min.X - oMaxX
		}
		if b.Max.Y < oMinY {
			dy = oMinY - b.Max.Y
		} else if oMaxY < b.Min.Y {
			dy = b.Min.Y - oMaxY
		}
		if b.Max.Z < oMinZ {
			dz = oMinZ - b.Max.Z
		} else if oMaxZ < b.Min.Z {
			dz = b.Min.Z - oMaxZ
		}
		if d := dist[j] + math.Sqrt(dx*dx+dy*dy+dz*dz); d < best {
			best = d
			bestJ = int32(lo + j)
		}
	}
	return best, bestJ
}

// envIntersects reports whether the box's footprint touches any envelope
// box (all non-empty). A function rather than a closure: the chain DP calls
// it statically and nothing escapes.
func envIntersects(env []geom.MBR, b *geom.Box3) bool {
	for _, e := range env {
		if e.MinX <= b.Max.X && b.Min.X <= e.MaxX && e.MinY <= b.Max.Y && b.Min.Y <= e.MaxY {
			return true
		}
	}
	return false
}

// growF64 resizes s to n entries, preserving the first len(s) values and
// allocating only when the capacity is short.
func growF64(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]float64, n, n+n/2)
	copy(ns, s)
	return ns
}

// growI32 is growF64 for []int32.
func growI32(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]int32, n, n+n/2)
	copy(ns, s)
	return ns
}

func reverse(s []*CrossLine) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseSegs(s []Segment) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
