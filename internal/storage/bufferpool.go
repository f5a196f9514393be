package storage

import (
	"fmt"
	"sync"

	"surfknn/internal/obs"
)

// Stats counts buffer-pool activity. Accesses is the paper's "number of
// disk pages accessed" metric (logical page reads requested by queries);
// Misses are the subset that had to hit the page file.
type Stats struct {
	Accesses  int64
	Misses    int64
	Evictions int64
	Writes    int64
}

// IOAccount accumulates the logical page accesses performed on behalf of
// one query. It is the per-query counterpart of the pool-wide Stats: each
// query session owns one, threads it through the paged reads it issues, and
// reads it back unsynchronised — the account is touched by exactly one
// goroutine, so concurrent queries never contend on (or corrupt) each
// other's page-access numbers.
type IOAccount struct {
	Accesses int64
	Misses   int64
}

// Frame is a pinned page in the buffer pool. Data is valid until Unpin:
// once a frame's last pin is released it may be evicted, and the pool then
// reuses the Frame and its Data for another page. Pinned frames are never
// evicted, so concurrent readers may use Data without holding any pool
// lock; the pin/dirty bookkeeping itself is guarded by the pool's mutex.
type Frame struct {
	ID    PageID
	Data  []byte
	pins  int
	dirty bool
	// prev/next link the frame into the pool's LRU ring from its first
	// unpin until it is evicted; both are nil while it is off the ring.
	prev, next *Frame
}

// BufferPool caches pages with LRU replacement. Pinned pages are never
// evicted. All methods are safe for concurrent use: the frame table, LRU
// ring, pin counts and pool-wide stats are guarded by one mutex (page-file
// reads on a miss happen under it too — the backing files are memory or
// local disk, and hit-path readers touch pinned Data without any lock).
// Per-query access accounting goes through the IOAccount passed to Get,
// which needs no locking because each query owns its account.
//
// A miss allocates nothing once the pool is full: the evicted victim's
// Frame and Data are handed to the page being loaded. Frames are created
// lazily, one per page first loaded while the pool still has room, so a
// pool larger than its file never holds more frames than the file has
// pages.
type BufferPool struct {
	mu       sync.Mutex
	file     PageFile
	capacity int
	frames   []*Frame // indexed by PageID (dense from PageFile.Alloc); nil = not resident
	resident int      // non-nil entries of frames
	// lru is the sentinel of the intrusive LRU ring: lru.next is the most
	// recently unpinned frame, lru.prev the cold end. A frame joins the ring
	// on its first unpin and keeps its place while re-pinned.
	lru   Frame
	spare *Frame // evicted frame awaiting reuse by the next load
	stats Stats
	reg   *obs.Registry // process-wide counters; nil when uninstrumented
}

// Instrument mirrors the pool's hit/miss/eviction activity into the
// process-wide registry (atomic counters, so readers need no pool lock).
// Call it once, before queries start; a nil registry detaches the pool.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.reg = reg
}

// NewBufferPool wraps file with a pool of the given capacity (pages).
func NewBufferPool(file PageFile, capacity int) *BufferPool {
	if capacity < 1 {
		panic(fmt.Sprintf("storage: buffer pool capacity %d", capacity))
	}
	bp := &BufferPool{
		file:     file,
		capacity: capacity,
		frames:   make([]*Frame, file.NumPages()),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Stats returns a copy of the pool-wide counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the pool-wide counters (used between experiment runs).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// Alloc allocates a fresh page and returns it pinned.
func (bp *BufferPool) Alloc() (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.file.Alloc()
	if err != nil {
		return nil, err
	}
	fr, err := bp.freeFrame()
	if err != nil {
		return nil, err
	}
	clear(fr.Data) // a recycled frame still holds its victim's bytes
	bp.admit(fr, id, true)
	return fr, nil
}

// Get returns the page pinned, fetching it from the file on a miss. acct,
// when non-nil, receives the per-query access accounting (the paper's
// logical page-access metric); reads issued outside any query (index
// construction, persistence) pass nil.
func (bp *BufferPool) Get(id PageID, acct *IOAccount) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.Accesses++
	if acct != nil {
		acct.Accesses++
	}
	if int(id) < len(bp.frames) {
		if fr := bp.frames[id]; fr != nil {
			if bp.reg != nil {
				bp.reg.PoolHits.Add(1)
			}
			// The frame keeps its ring position while pinned (eviction
			// skips pinned frames).
			fr.pins++
			return fr, nil
		}
	}
	bp.stats.Misses++
	if acct != nil {
		acct.Misses++
	}
	if bp.reg != nil {
		bp.reg.PoolMisses.Add(1)
	}
	fr, err := bp.freeFrame()
	if err != nil {
		return nil, err
	}
	if err := bp.file.ReadPage(id, fr.Data); err != nil {
		bp.spare = fr
		return nil, err
	}
	bp.admit(fr, id, false)
	return fr, nil
}

// Unpin releases one pin; dirty marks the page for write-back.
func (bp *BufferPool) Unpin(fr *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", fr.ID))
	}
	if dirty {
		fr.dirty = true
	}
	fr.pins--
	if fr.pins == 0 && bp.lru.next != fr {
		if fr.next != nil {
			unlink(fr)
		}
		head := &bp.lru
		fr.prev, fr.next = head, head.next
		head.next.prev = fr
		head.next = fr
	}
}

// unlink takes fr off the LRU ring.
func unlink(fr *Frame) {
	fr.prev.next = fr.next
	fr.next.prev = fr.prev
	fr.prev, fr.next = nil, nil
}

// admit makes fr resident as page id, pinned once. Callers must hold bp.mu
// and have taken fr from freeFrame.
func (bp *BufferPool) admit(fr *Frame, id PageID, dirty bool) {
	if n := int(id) + 1; n > len(bp.frames) {
		bp.frames = append(bp.frames, make([]*Frame, n-len(bp.frames))...)
	}
	fr.ID, fr.pins, fr.dirty = id, 1, dirty
	bp.frames[id] = fr
	bp.resident++
}

// freeFrame returns an unowned frame for a page about to be loaded: the
// spare left by the last eviction (or by a failed read) when there is one,
// a new frame otherwise. It evicts first when the pool is full. Callers
// must hold bp.mu.
func (bp *BufferPool) freeFrame() (*Frame, error) {
	if err := bp.makeRoom(); err != nil {
		return nil, err
	}
	fr := bp.spare
	if fr == nil {
		return &Frame{Data: make([]byte, PageSize)}, nil
	}
	bp.spare = nil
	return fr, nil
}

// makeRoom evicts the least recently used unpinned frame if the pool is at
// capacity, leaving it as the spare. Callers must hold bp.mu.
func (bp *BufferPool) makeRoom() error {
	if bp.resident < bp.capacity {
		return nil
	}
	// Walk from the cold end, skipping frames that are pinned (they keep
	// their ring position across pin cycles): the first unpinned frame is
	// the least recently unpinned one.
	victim := bp.lru.prev
	for victim != &bp.lru && victim.pins > 0 {
		victim = victim.prev
	}
	if victim == &bp.lru {
		return fmt.Errorf("%w: all %d pages pinned", ErrPoolExhausted, bp.resident)
	}
	if victim.dirty {
		if err := bp.file.WritePage(victim.ID, victim.Data); err != nil {
			return err
		}
		victim.dirty = false
		bp.stats.Writes++
	}
	unlink(victim)
	bp.frames[victim.ID] = nil
	bp.resident--
	bp.spare = victim
	bp.stats.Evictions++
	if bp.reg != nil {
		bp.reg.PoolEvictions.Add(1)
	}
	return nil
}

// Flush writes every dirty cached page back to the file.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr != nil && fr.dirty {
			if err := bp.file.WritePage(fr.ID, fr.Data); err != nil {
				return err
			}
			fr.dirty = false
			bp.stats.Writes++
		}
	}
	return nil
}

// PinnedCount reports how many frames are currently pinned (testing aid).
func (bp *BufferPool) PinnedCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr != nil && fr.pins > 0 {
			n++
		}
	}
	return n
}
