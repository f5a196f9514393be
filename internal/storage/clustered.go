package storage

import (
	"encoding/binary"
	"math"
	"sort"

	"surfknn/internal/geom"
)

// ClusterRecord is one unit of terrain data placed on disk: an opaque ID
// (interpreted by the owning structure — a DDM edge index, an SDN segment
// key), its (x,y) bounding rectangle, and its validity interval [From, To)
// in the owner's resolution dimension (collapse time for DMTM, resolution
// level for MSDN).
type ClusterRecord struct {
	ID       uint64
	MBR      geom.MBR
	From, To int32
}

const clusterRecSize = 8 + 4*8 + 4 + 4 // 48 bytes
const recsPerPage = (PageSize - hdrSize) / clusterRecSize

// pageMeta is the in-memory directory entry for one data page.
type pageMeta struct {
	id      PageID
	mbr     geom.MBR
	minFrom int32
	maxTo   int32
}

// Clustered is a read-only spatially clustered record store. Records are
// packed into pages ordered by (longevity, Z-order), so that coarse
// resolutions touch few pages and fetches of a small region touch pages
// whose directory rectangles intersect it — the access pattern the paper
// obtains from its Oracle clustering index.
type Clustered struct {
	pool *BufferPool
	dir  []pageMeta
	n    int
}

// BuildClustered packs the records into pages through the pool and returns
// the store. The input slice is reordered in place.
func BuildClustered(pool *BufferPool, recs []ClusterRecord) (*Clustered, error) {
	sort.Slice(recs, func(i, j int) bool {
		// Longevity first: records that survive to coarser resolutions are
		// clustered together at the front...
		if recs[i].To != recs[j].To {
			return recs[i].To > recs[j].To
		}
		// ...then spatially by Z-order of the rectangle centre.
		return zOrder(recs[i].MBR.Center()) < zOrder(recs[j].MBR.Center())
	})
	c := &Clustered{pool: pool, n: len(recs)}
	for start := 0; start < len(recs); start += recsPerPage {
		end := start + recsPerPage
		if end > len(recs) {
			end = len(recs)
		}
		fr, err := pool.Alloc()
		if err != nil {
			return nil, err
		}
		meta := pageMeta{
			id:      fr.ID,
			mbr:     geom.EmptyMBR(),
			minFrom: math.MaxInt32,
			maxTo:   math.MinInt32,
		}
		setCount(fr.Data, end-start)
		for i := start; i < end; i++ {
			writeClusterRec(fr.Data[hdrSize+(i-start)*clusterRecSize:], recs[i])
			meta.mbr = meta.mbr.Union(recs[i].MBR)
			if recs[i].From < meta.minFrom {
				meta.minFrom = recs[i].From
			}
			if recs[i].To > meta.maxTo {
				meta.maxTo = recs[i].To
			}
		}
		pool.Unpin(fr, true)
		c.dir = append(c.dir, meta)
	}
	return c, nil
}

// Len returns the number of stored records.
func (c *Clustered) Len() int { return c.n }

// NumPages returns the number of data pages.
func (c *Clustered) NumPages() int { return len(c.dir) }

// Fetch reads every record valid at level (From <= level < To) whose MBR
// intersects region, going through the buffer pool page by page (each data
// page touched counts as one access, charged to acct when non-nil — the
// per-query account of the session issuing the fetch). The page directory
// itself is assumed cached (as a DBMS keeps index upper levels hot) and is
// not counted. The store is immutable after BuildClustered, so concurrent
// fetches from different sessions are safe.
func (c *Clustered) Fetch(region geom.MBR, level int32, acct *IOAccount, fn func(ClusterRecord)) error {
	for _, meta := range c.dir {
		if meta.minFrom > level || meta.maxTo <= level {
			continue
		}
		if !meta.mbr.Intersects(region) {
			continue
		}
		if err := c.fetchPage(meta.id, region, level, acct, fn); err != nil {
			return err
		}
	}
	return nil
}

// fetchPage pins one data page for the duration of the record scan. The
// unpin is deferred: fn is caller code, and a panic there must not leak
// the pin — a permanently pinned frame is never evictable and walks the
// pool toward ErrPoolExhausted.
func (c *Clustered) fetchPage(id PageID, region geom.MBR, level int32, acct *IOAccount, fn func(ClusterRecord)) error {
	fr, err := c.pool.Get(id, acct)
	if err != nil {
		return err
	}
	defer c.pool.Unpin(fr, false)
	n := count(fr.Data)
	for i := 0; i < n; i++ {
		p := clusterRecAt(fr.Data, i)
		if recValidAt(p, level) && recMBR(p).Intersects(region) {
			fn(readClusterRec(p))
		}
	}
	return nil
}

// FetchIDs is Fetch collecting the record IDs into ids and their MBRs into
// the parallel boxes (reuse both buffers across queries to avoid
// allocation: the warm query path calls this instead of passing a
// collector closure into Fetch). Page accounting is identical to Fetch. A
// record's MBR is decoded once, for the region test, and its ID only when
// it matches.
func (c *Clustered) FetchIDs(region geom.MBR, level int32, acct *IOAccount, ids []uint64, boxes []geom.MBR) ([]uint64, []geom.MBR, error) {
	for _, meta := range c.dir {
		if meta.minFrom > level || meta.maxTo <= level {
			continue
		}
		if !meta.mbr.Intersects(region) {
			continue
		}
		fr, err := c.pool.Get(meta.id, acct)
		if err != nil {
			return ids, boxes, err
		}
		n := count(fr.Data)
		for i := 0; i < n; i++ {
			p := clusterRecAt(fr.Data, i)
			if !recValidAt(p, level) {
				continue
			}
			if m := recMBR(p); m.Intersects(region) {
				ids = append(ids, binary.LittleEndian.Uint64(p[0:]))
				boxes = append(boxes, m)
			}
		}
		c.pool.Unpin(fr, false)
	}
	return ids, boxes, nil
}

// FetchCount is Fetch that only counts matching records — the warm-path
// replacement for the counting closures the SDN cost accounting used. Page
// accounting is identical to Fetch.
func (c *Clustered) FetchCount(region geom.MBR, level int32, acct *IOAccount) (int, error) {
	total := 0
	for _, meta := range c.dir {
		if meta.minFrom > level || meta.maxTo <= level {
			continue
		}
		if !meta.mbr.Intersects(region) {
			continue
		}
		fr, err := c.pool.Get(meta.id, acct)
		if err != nil {
			return total, err
		}
		n := count(fr.Data)
		for i := 0; i < n; i++ {
			p := clusterRecAt(fr.Data, i)
			if recValidAt(p, level) && recMBR(p).Intersects(region) {
				total++
			}
		}
		c.pool.Unpin(fr, false)
	}
	return total, nil
}

// PagesFor reports how many data pages a Fetch of (region, level) would
// touch, without touching them (planning aid for I/O-region integration).
func (c *Clustered) PagesFor(region geom.MBR, level int32) int {
	n := 0
	for _, meta := range c.dir {
		if meta.minFrom > level || meta.maxTo <= level {
			continue
		}
		if meta.mbr.Intersects(region) {
			n++
		}
	}
	return n
}

func writeClusterRec(p []byte, r ClusterRecord) {
	binary.LittleEndian.PutUint64(p[0:], r.ID)
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(r.MBR.MinX))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(r.MBR.MinY))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(r.MBR.MaxX))
	binary.LittleEndian.PutUint64(p[32:], math.Float64bits(r.MBR.MaxY))
	binary.LittleEndian.PutUint32(p[40:], uint32(r.From))
	binary.LittleEndian.PutUint32(p[44:], uint32(r.To))
}

// clusterRecAt returns the encoded bytes of record i on a data page.
func clusterRecAt(page []byte, i int) []byte {
	off := hdrSize + i*clusterRecSize
	return page[off : off+clusterRecSize]
}

// recValidAt reports whether the encoded record's validity interval
// [From, To) holds level, decoding only bytes 40–47; the scans test it
// before decoding the MBR. (Kept apart from the MBR test so both stay
// within the inlining budget.)
func recValidAt(p []byte, level int32) bool {
	return int32(binary.LittleEndian.Uint32(p[40:])) <= level && level < int32(binary.LittleEndian.Uint32(p[44:]))
}

func recMBR(p []byte) geom.MBR {
	return geom.MBR{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(p[32:])),
	}
}

func readClusterRec(p []byte) ClusterRecord {
	return ClusterRecord{
		ID:   binary.LittleEndian.Uint64(p[0:]),
		MBR:  recMBR(p),
		From: int32(binary.LittleEndian.Uint32(p[40:])),
		To:   int32(binary.LittleEndian.Uint32(p[44:])),
	}
}

// zOrder interleaves the bits of the quantised coordinates, giving the
// Morton order used for spatial clustering.
func zOrder(p geom.Vec2) uint64 {
	// Quantise into 2^21 cells per axis over a fixed large envelope; the
	// absolute scale only matters for relative ordering.
	const scale = 1 << 20
	x := uint32(int64(p.X/8) + scale)
	y := uint32(int64(p.Y/8) + scale)
	return interleave(x&0x1FFFFF) | interleave(y&0x1FFFFF)<<1
}

func interleave(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
