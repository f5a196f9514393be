package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// oracle checks answers outside the timed loop against direct pooled
// Session.MR3Ctx calls on an unsharded database. For a dynamic workload it
// replays the acknowledged updates in epoch order into that database and
// checks each answer at the epoch it reported (X-Epoch).
type oracle struct {
	db       *core.TerrainDB
	workers  int // concurrent checks within one epoch
	perEpoch int // checks per epoch and op kind; 0 checks every answer
	// skew accepts an answer labelled epoch e that matches epoch e+1
	// instead. A coordinator labels an answer with the lowest epoch among
	// the shards it read, so a query overlapping an update broadcast reads
	// the update on the shards that already applied it.
	skew bool
	tr   *tracer
	out  *outcome

	mu      sync.Mutex
	replays map[int]replay // by request number: the direct answer to each checked k-NN
	applies []time.Duration
	skewed  int // answers accepted one epoch past their label
}

// replay is what one direct MR3Ctx call did, copied out of session scratch.
type replay struct {
	q      mesh.SurfacePoint
	wall   time.Duration
	cpu    time.Duration
	phases []stats.PhaseCost
	answer []core.Neighbor
}

func newOracle(db *core.TerrainDB, out *outcome, tr *tracer) *oracle {
	workers := 2
	if tr != nil {
		workers = 1 // rung timings must not share the CPU with each other
	}
	return &oracle{db: db, workers: workers, tr: tr, out: out, replays: map[int]replay{}}
}

// verdict is one checked answer: msg is empty when it matched.
type verdict struct {
	s   *sample
	msg string
}

// check verifies every successful answer in samples (or, with perEpoch, a
// fixed sample of each epoch's answers) and counts mismatches as failures.
func (o *oracle) check(ctx context.Context, samples []sample) {
	var updates []*sample
	byEpoch := map[uint64][]*sample{}
	epochSet := map[uint64]bool{}
	taken := map[[2]uint64]int{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		switch s.op.kind {
		case opUpsert, opDelete:
			if s.published {
				updates = append(updates, s)
				epochSet[s.epoch] = true
			}
		case opKNN, opMove:
			key := [2]uint64{s.epoch, uint64(s.op.kind)}
			if o.perEpoch > 0 && taken[key] >= o.perEpoch {
				continue
			}
			taken[key]++
			byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
			epochSet[s.epoch] = true
		}
	}
	sort.SliceStable(updates, func(a, b int) bool { return updates[a].epoch < updates[b].epoch })
	epochs := make([]uint64, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })

	store := o.db.ObjectStore()
	var retry []verdict // skew candidates, re-checked one epoch later
	ui := 0
	for _, e := range epochs {
		for ; ui < len(updates) && updates[ui].epoch <= e; ui++ {
			if !o.apply(updates[ui]) {
				return
			}
		}
		if store.Epoch() != e {
			for _, s := range byEpoch[e] {
				o.fail("req %d: answer at epoch %d, which the acknowledged updates never produced", s.req, e)
			}
			continue
		}
		var again []*sample
		var first []string
		for _, v := range retry {
			if v.s.epoch+1 == e {
				again = append(again, v.s)
				first = append(first, v.msg)
			} else {
				o.fail("%s", v.msg)
			}
		}
		for i, v := range o.checkAll(ctx, again, e) {
			if v.msg != "" {
				o.fail("%s (and at epoch %d: %s)", first[i], e, v.msg)
			} else {
				o.skewed++
			}
		}
		retry = retry[:0]
		for _, v := range o.checkAll(ctx, byEpoch[e], e) {
			switch {
			case v.msg == "":
			case o.skew:
				retry = append(retry, v)
			default:
				o.fail("%s", v.msg)
			}
		}
	}
	for _, v := range retry {
		o.fail("%s", v.msg)
	}
}

// apply replays one acknowledged update into the shadow store; false (and
// a mismatch) when the shadow lands on another epoch than the server did.
func (o *oracle) apply(s *sample) bool {
	store := o.db.ObjectStore()
	var objs []workload.Object
	for _, u := range s.op.objs {
		p, err := o.db.SurfacePointAt(geom.Vec2{X: u.X, Y: u.Y})
		if err != nil {
			o.fail("req %d: upsert position off the terrain: %v", s.req, err)
			return false
		}
		objs = append(objs, workload.Object{ID: *u.ID, Point: p})
	}
	start := time.Now()
	var epoch uint64
	if s.op.kind == opUpsert {
		epoch = store.Upsert(objs)
	} else {
		epoch, _ = store.Delete(s.op.ids)
	}
	end := time.Now()
	o.applies = append(o.applies, end.Sub(start))
	o.tr.record("objstore.apply", "", s.req, start, end)
	if epoch != s.epoch {
		o.fail("req %d: %s acknowledged epoch %d, replay reached %d", s.req, s.op.kind, s.epoch, epoch)
		return false
	}
	return true
}

// checkAll checks answers against the shadow at epoch e on the oracle's
// workers, returning one verdict per sample in order.
func (o *oracle) checkAll(ctx context.Context, ss []*sample, e uint64) []verdict {
	out := make([]verdict, len(ss))
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				out[i] = verdict{ss[i], o.checkOne(ctx, ss[i], e)}
			}
		}()
	}
	for i := range ss {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// checkOne checks one answer at epoch e ("" when it matches).
func (o *oracle) checkOne(ctx context.Context, s *sample, e uint64) string {
	if s.op.kind == opKNN {
		return o.checkAt(ctx, s, geom.Vec2{X: s.op.x, Y: s.op.y}, s.op.k, e, true)
	}
	// A move's answer is the subscription's result at its anchor, bit for
	// bit; on a safe-region hit the same neighbour set must also be the
	// answer at the moved-to point. (Only the set: MR3 orders members whose
	// bounds it left unresolved by upper bound, and those bounds differ
	// between the two points.)
	k := walkerK
	if msg := o.checkAt(ctx, s, s.anchor, k, e, false); msg != "" || !s.safeHit {
		return msg
	}
	want, msg := o.direct(ctx, s, geom.Vec2{X: s.op.x, Y: s.op.y}, k, e, false)
	if msg != "" {
		return msg
	}
	if len(s.neighbors) != len(want) {
		return fmt.Sprintf("req %d: safe-region hit has %d neighbours, the moved-to point %d", s.req, len(s.neighbors), len(want))
	}
	ids := map[int64]bool{}
	for _, n := range want {
		ids[n.Object.ID] = true
	}
	for _, n := range s.neighbors {
		if !ids[n.ID] {
			return fmt.Sprintf("req %d: safe-region hit at (%g, %g) serves object %d, not among the moved-to point's %d nearest",
				s.req, s.op.x, s.op.y, n.ID, k)
		}
	}
	return ""
}

// checkAt compares the sample's answer with the direct answer at p.
func (o *oracle) checkAt(ctx context.Context, s *sample, p geom.Vec2, k int, e uint64, keep bool) string {
	want, msg := o.direct(ctx, s, p, k, e, keep)
	if msg != "" {
		return msg
	}
	if d := diffNeighbors(s.neighbors, want); d != "" {
		return fmt.Sprintf("req %d (%s k=%d at (%g, %g), epoch %d): %s", s.req, s.op.kind, k, p.X, p.Y, s.epoch, d)
	}
	return ""
}

// direct runs MR3 at p on a pooled session, which must read epoch e. With
// keep, the call is recorded as the core rung of request s.req.
func (o *oracle) direct(ctx context.Context, s *sample, p geom.Vec2, k int, e uint64, keep bool) ([]core.Neighbor, string) {
	q, err := o.db.SurfacePointAt(p)
	if err != nil {
		return nil, fmt.Sprintf("req %d: point (%g, %g) off the terrain: %v", s.req, p.X, p.Y, err)
	}
	sess := o.db.AcquireSession()
	defer o.db.Release(sess)
	start := time.Now()
	res, err := sess.MR3Ctx(ctx, q, k, core.S1, core.Options{})
	end := time.Now()
	if err != nil {
		return nil, fmt.Sprintf("req %d: direct MR3: %v", s.req, err)
	}
	if res.Epoch != e {
		return nil, fmt.Sprintf("req %d: direct answer read epoch %d, want %d", s.req, res.Epoch, e)
	}
	answer := append([]core.Neighbor(nil), res.Neighbors...)
	if keep {
		o.tr.record("core.mr3", "", s.req, start, end)
		o.mu.Lock()
		o.replays[s.req] = replay{
			q: q, wall: end.Sub(start), cpu: res.Cost.CPU,
			phases: append([]stats.PhaseCost(nil), res.Cost.Phases...),
			answer: answer,
		}
		o.mu.Unlock()
	}
	return answer, ""
}

// fail records a mismatch.
func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.out.mismatch(format, args...)
}

// diffNeighbors reports how got differs from want: membership, order,
// positions and both distance bounds, bit for bit ("" when identical).
func diffNeighbors(got []api.Neighbor, want []core.Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d neighbours, want %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, w := range want {
		g := got[i]
		p := w.Object.Point.Pos
		switch {
		case g.ID != w.Object.ID:
			return fmt.Sprintf("rank %d is object %d, want %d", i+1, g.ID, w.Object.ID)
		case !same(g.X, p.X) || !same(g.Y, p.Y) || !same(g.Z, p.Z):
			return fmt.Sprintf("rank %d position differs", i+1)
		case !same(float64(g.LB), w.LB) || !same(float64(g.UB), w.UB):
			return fmt.Sprintf("rank %d bounds [%v, %v], want [%v, %v]", i+1, float64(g.LB), float64(g.UB), w.LB, w.UB)
		}
	}
	return ""
}
