package sdn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// pinnedLowerBoundHash is the SHA-256 of every estimate TestLowerBoundPinned
// makes. It was taken before the chain kernel was rewritten call-free; any
// change to a bound's bits, a path, or a segment box shows up here.
const pinnedLowerBoundHash = "2eeae0b8a8877283f82fb57fc980b6573f44a4e12e2c1f369c40227e4f28f99f"

// TestLowerBoundPinned hashes the full output of the three scratch entry
// points — LB bits, segment counts, and each path segment's line, span and
// box bits — over a seeded sample of estimates on the benchmark terrain
// (BH, 32, 50 m, seed 2006). Resolutions cover the ladder plus one
// off-ladder value; regions alternate between the full extent and ellipse
// MBRs, as the ranker passes them.
func TestLowerBoundPinned(t *testing.T) {
	t.Parallel()
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 32, 50, 2006))
	loc := mesh.NewLocator(m)
	ms := BuildMSDN(m, 0)
	ext := m.Extent()
	resolutions := []float64{0.25, 0.375, 0.5, 0.75, 1.0, 0.6}
	rng := rand.New(rand.NewSource(2006))
	h := sha256.New()
	var sc Scratch
	var prev []Segment
	const samples = 240
	for n := 0; n < samples; {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, errA := mesh.MakeSurfacePoint(m, loc, pa)
		b, errB := mesh.MakeSurfacePoint(m, loc, pb)
		if errA != nil || errB != nil {
			continue
		}
		res := resolutions[n%len(resolutions)]
		region := ext
		if n%2 == 1 {
			stretch := 1 + 0.5*rng.Float64()
			if e := geom.NewEllipse(pa, pb, stretch*a.Pos.Dist(b.Pos)).MBR(); !e.IsEmpty() {
				region = e
			}
		}
		est := ms.LowerBoundScratch(&sc, a.Pos, b.Pos, region, res)
		hashEstimate(h, est)
		if len(prev) > 0 {
			hashEstimate(h, ms.LowerBoundEnvelopeScratch(&sc, a.Pos, b.Pos, region, res, prev, 2*ms.Spacing))
		}
		prev = append(prev[:0], est.Path...)
		hashEstimate(h, ms.LowerBoundBothScratch(&sc, a.Pos, b.Pos, region, res))
		n++
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedLowerBoundHash {
		t.Fatalf("lower-bound output hash = %s, want %s", got, pinnedLowerBoundHash)
	}
}

func hashEstimate(h hash.Hash, est LowerEstimate) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(est.LB))
	put(uint64(est.Segments))
	put(uint64(len(est.Path)))
	for _, s := range est.Path {
		put(math.Float64bits(s.Line.Coord))
		put(uint64(s.I))
		put(uint64(s.J))
		for _, v := range [6]float64{s.Box.Min.X, s.Box.Min.Y, s.Box.Min.Z, s.Box.Max.X, s.Box.Max.Y, s.Box.Max.Z} {
			put(math.Float64bits(v))
		}
	}
}
