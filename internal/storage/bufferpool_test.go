package storage

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refPool is the reference LRU the buffer pool must agree with: a
// container/list of the frames unpinned at least once (front = most
// recently unpinned), the victim being the first unpinned frame from the
// back. It tracks residency and pins only; page bytes are checked against
// the test's own copy of the file.
type refPool struct {
	capacity int
	frames   map[PageID]*refFrame
	lru      *list.List
	pages    int // pages allocated in the file
}

type refFrame struct {
	id   PageID
	pins int
	elem *list.Element
}

// refOutcome is what one Get or Alloc did: hit or miss, the evicted page
// (InvalidPage when none) and whether it failed.
type refOutcome struct {
	hit    bool
	victim PageID
	failed bool
}

func newRefPool(capacity, pages int) *refPool {
	return &refPool{capacity: capacity, frames: make(map[PageID]*refFrame), lru: list.New(), pages: pages}
}

// makeRoom evicts the LRU victim when the pool is full. ok is false when
// every resident frame is pinned.
func (r *refPool) makeRoom() (victim PageID, ok bool) {
	if len(r.frames) < r.capacity {
		return InvalidPage, true
	}
	for e := r.lru.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*refFrame); f.pins == 0 {
			r.lru.Remove(e)
			delete(r.frames, f.id)
			return f.id, true
		}
	}
	return InvalidPage, false
}

// get mirrors BufferPool.Get; readFails makes the page read fail after the
// eviction, as a faulty file would.
func (r *refPool) get(id PageID, readFails bool) refOutcome {
	if f, ok := r.frames[id]; ok {
		f.pins++
		return refOutcome{hit: true, victim: InvalidPage}
	}
	victim, ok := r.makeRoom()
	if !ok || readFails {
		return refOutcome{victim: victim, failed: true}
	}
	r.frames[id] = &refFrame{id: id, pins: 1}
	return refOutcome{victim: victim}
}

func (r *refPool) alloc() (PageID, refOutcome) {
	id := PageID(r.pages)
	r.pages++
	victim, ok := r.makeRoom()
	if !ok {
		return InvalidPage, refOutcome{victim: victim, failed: true}
	}
	r.frames[id] = &refFrame{id: id, pins: 1}
	return id, refOutcome{victim: victim}
}

func (r *refPool) unpin(id PageID) {
	f := r.frames[id]
	f.pins--
	if f.pins == 0 {
		if f.elem == nil {
			f.elem = r.lru.PushFront(f)
		} else {
			r.lru.MoveToFront(f.elem)
		}
	}
}

// readFaultFile fails ReadPage while fail is set and passes every other
// operation through.
type readFaultFile struct {
	PageFile
	fail bool
}

func (f *readFaultFile) ReadPage(id PageID, buf []byte) error {
	if f.fail {
		return errInjected
	}
	return f.PageFile.ReadPage(id, buf)
}

// residentSet lists the pool's resident page IDs.
func residentSet(bp *BufferPool) map[PageID]bool {
	out := make(map[PageID]bool)
	for _, fr := range bp.frames {
		if fr != nil {
			out[fr.ID] = true
		}
	}
	return out
}

// ringOrder lists the pool's LRU ring from the most recently unpinned end.
func ringOrder(bp *BufferPool) []PageID {
	var out []PageID
	for fr := bp.lru.next; fr != &bp.lru; fr = fr.next {
		out = append(out, fr.ID)
	}
	return out
}

func refRingOrder(r *refPool) []PageID {
	var out []PageID
	for e := r.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*refFrame).id)
	}
	return out
}

// TestBufferPoolMatchesReferenceLRU runs a seeded random Get/Unpin/Alloc
// schedule, with occasional failing page reads, against the reference LRU.
// Every operation must produce the same hit, miss, eviction and victim as
// the reference; the LRU ring must list the same pages in the same order;
// pages must read back the bytes last written; and a pinned frame's bytes
// must never change while other pages churn through the recycled frames.
func TestBufferPoolMatchesReferenceLRU(t *testing.T) {
	const (
		capacity = 6
		maxPages = 40
		steps    = 20000
	)
	ff := &readFaultFile{PageFile: NewMemFile()}
	bp := NewBufferPool(ff, capacity)
	ref := newRefPool(capacity, 0)
	rng := rand.New(rand.NewSource(14))

	var disk [][]byte // expected contents of every page
	type held struct {
		fr   *Frame
		id   PageID
		snap []byte
	}
	var pins []held
	var exhausted, faults int
	frames := make(map[*Frame]bool) // distinct frames ever handed out
	stamp := func(fr *Frame, step int) []byte {
		fr.Data[0], fr.Data[PageSize-1] = byte(step), byte(step>>8)
		copy(fr.Data[1:], fmt.Sprintf("page %d step %d", fr.ID, step))
		return append([]byte(nil), fr.Data...)
	}

	for step := 0; step < steps; step++ {
		before := residentSet(bp)
		st0 := bp.Stats()
		want := refOutcome{victim: InvalidPage}
		var got *Frame
		var err error
		op := rng.Intn(10)
		if len(pins) > rng.Intn(capacity+2) {
			op = 9 // release pins more often the more are held; now and then all frames stay pinned
		}
		switch {
		case op < 2 && len(disk) < maxPages:
			var id PageID
			id, want = ref.alloc()
			got, err = bp.Alloc()
			if err == nil {
				if got.ID != id {
					t.Fatalf("step %d: Alloc gave page %d, reference %d", step, got.ID, id)
				}
				if !bytes.Equal(got.Data, make([]byte, PageSize)) {
					t.Fatalf("step %d: Alloc returned a page that is not zeroed", step)
				}
				disk = append(disk, stamp(got, step))
			} else {
				// The file grew even though no frame could be admitted.
				disk = append(disk, make([]byte, PageSize))
			}
		case op < 6 && len(disk) > 0:
			id := PageID(rng.Intn(len(disk)))
			ff.fail = rng.Intn(8) == 0
			want = ref.get(id, ff.fail)
			got, err = bp.Get(id, nil)
			ff.fail = false
			if err == nil && !bytes.Equal(got.Data, disk[id]) {
				t.Fatalf("step %d: page %d read back different bytes", step, id)
			}
			if hit := st0.Misses == bp.Stats().Misses; hit != want.hit {
				t.Fatalf("step %d: Get(%d) hit=%v, reference hit=%v", step, id, hit, want.hit)
			}
		case len(pins) > 0:
			i := rng.Intn(len(pins))
			h := pins[i]
			pins = append(pins[:i], pins[i+1:]...)
			dirty := rng.Intn(3) == 0
			if dirty {
				disk[h.id] = stamp(h.fr, step)
				for j := range pins { // other pins of the same page see the write
					if pins[j].fr == h.fr {
						pins[j].snap = disk[h.id]
					}
				}
			}
			bp.Unpin(h.fr, dirty)
			ref.unpin(h.id)
		default:
			continue
		}
		if want.failed != (err != nil) {
			t.Fatalf("step %d: error %v, reference failed=%v", step, err, want.failed)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrPoolExhausted):
			exhausted++
		case errors.Is(err, errInjected):
			faults++
		default:
			t.Fatalf("step %d: unexpected error %v", step, err)
		}
		if got != nil && err == nil {
			frames[got] = true
			pins = append(pins, held{fr: got, id: got.ID, snap: append([]byte(nil), got.Data...)})
		}

		// Same eviction, same victim.
		after := residentSet(bp)
		victim := InvalidPage
		for id := range before {
			if !after[id] {
				if victim != InvalidPage {
					t.Fatalf("step %d: more than one page evicted", step)
				}
				victim = id
			}
		}
		if victim != want.victim {
			t.Fatalf("step %d: evicted page %d, reference %d", step, victim, want.victim)
		}
		if d := bp.Stats().Evictions - st0.Evictions; (victim != InvalidPage) != (d == 1) || d > 1 {
			t.Fatalf("step %d: eviction counter moved by %d for victim %d", step, d, victim)
		}
		if len(after) != len(ref.frames) || len(after) > capacity {
			t.Fatalf("step %d: %d resident pages, reference %d, capacity %d", step, len(after), len(ref.frames), capacity)
		}
		for id := range ref.frames {
			if !after[id] {
				t.Fatalf("step %d: page %d resident in the reference only", step, id)
			}
		}
		if g, w := ringOrder(bp), refRingOrder(ref); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("step %d: LRU ring %v, reference %v", step, g, w)
		}
		for _, h := range pins {
			if h.fr.ID != h.id || !bytes.Equal(h.fr.Data, h.snap) {
				t.Fatalf("step %d: pinned page %d changed under its reader", step, h.id)
			}
		}
	}
	st := bp.Stats()
	if st.Evictions == 0 || exhausted == 0 || faults == 0 {
		t.Fatalf("schedule missed a path: %+v, %d exhausted, %d read faults", st, exhausted, faults)
	}
	t.Logf("%+v, %d exhausted, %d read faults", st, exhausted, faults)
	// Misses reuse evicted frames: never more frames than pool slots.
	if len(frames) > capacity {
		t.Fatalf("%d distinct frames handed out for a %d-page pool", len(frames), capacity)
	}
	for _, h := range pins {
		bp.Unpin(h.fr, false)
	}
	if n := bp.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount = %d after every unpin", n)
	}
}

// TestBufferPoolReadFailureRecyclesFrame fails the page read that follows
// an eviction: the Get reports the fault, and the evicted frame goes back
// for reuse, so later Gets succeed without a new frame, nothing stays
// pinned and residency never exceeds capacity.
func TestBufferPoolReadFailureRecyclesFrame(t *testing.T) {
	const capacity, pages = 4, 10
	mem := NewMemFile()
	for i := 0; i < pages; i++ {
		id, _ := mem.Alloc()
		buf := make([]byte, PageSize)
		buf[0] = byte(id + 1)
		if err := mem.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	ff := &faultFile{inner: mem, failAfter: -1}
	bp := NewBufferPool(ff, capacity)
	frames := make(map[*Frame]bool)
	get := func(id PageID) error {
		fr, err := bp.Get(id, nil)
		if err != nil {
			return err
		}
		frames[fr] = true
		if fr.Data[0] != byte(id+1) {
			t.Fatalf("page %d read back %d", id, fr.Data[0])
		}
		bp.Unpin(fr, false)
		return nil
	}
	for id := PageID(0); id < capacity; id++ {
		if err := get(id); err != nil {
			t.Fatal(err)
		}
	}
	ff.failAfter = 0 // the victim is clean: the next file op is the read
	if err := get(capacity); !errors.Is(err, errInjected) {
		t.Fatalf("Get after eviction = %v, want the injected read fault", err)
	}
	if st := bp.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	ff.failAfter = -1
	for round := 0; round < 3; round++ {
		for id := PageID(0); id < pages; id++ {
			if err := get(id); err != nil {
				t.Fatalf("Get(%d) after the fault: %v", id, err)
			}
			if n := len(residentSet(bp)); n > capacity {
				t.Fatalf("%d resident frames, capacity %d", n, capacity)
			}
		}
	}
	if n := bp.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount = %d, want 0", n)
	}
	if len(frames) > capacity {
		t.Fatalf("%d distinct frames for a %d-page pool: the failed read's frame was not reused", len(frames), capacity)
	}
}
