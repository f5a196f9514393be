package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
)

type opKind int

const (
	opKNN opKind = iota
	opMove
	opUpsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"knn", "move", "upsert", "delete"}[k]
}

// op is one generated request. The program under test receives only these.
type op struct {
	kind   opKind
	x, y   float64 // knn, move
	k      int     // knn
	skql   bool    // knn: sent as SELECT on /v1/query instead of /v1/knn
	walker int     // move: which subscription moves
	objs   []api.UpsertObject
	ids    []int64
}

// statement is the SKQL spelling of a k-NN op. 'f' with precision -1 is
// the shortest decimal that parses back to the same float64, so the
// statement asks exactly the typed request's question.
func (o *op) statement() string {
	return fmt.Sprintf("SELECT k=%d NEAREST (%s, %s)", o.k,
		strconv.FormatFloat(o.x, 'f', -1, 64), strconv.FormatFloat(o.y, 'f', -1, 64))
}

// sample is one executed op and what came back.
type sample struct {
	req   int
	op    *op
	sched time.Time // open loop: when the op was due; closed loop: start
	start time.Time
	end   time.Time
	late  time.Duration // open loop: send delay past schedule of an idle sender
	idle  bool          // open loop: the sender was idle when the op fell due
	err   error

	epoch     uint64
	neighbors []api.Neighbor
	pages     int64
	executed  bool // k-NN answered by the engine (not from the result cache)
	safeHit   bool // move answered from the safe region
	anchor    geom.Vec2
	published bool // update created a new epoch
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.sched) }

// execute sends one op. subs maps walkers to subscription ids.
func execute(ctx context.Context, c *client.Client, o *op, subs []uint64) sample {
	s := sample{op: o}
	switch o.kind {
	case opKNN:
		var res api.Result
		var meta client.Meta
		var err error
		if o.skql {
			var qr api.QueryResponse
			qr, meta, err = c.Query(ctx, api.QueryRequest{Q: o.statement()})
			res = qr.Result
		} else {
			res, meta, err = c.KNN(ctx, api.KNNRequest{X: o.x, Y: o.y, K: o.k})
		}
		s.err, s.epoch, s.neighbors, s.pages = err, meta.Epoch, res.Neighbors, res.Cost.Pages
		s.executed = meta.Cache != "hit"
	case opMove:
		res, meta, err := c.MoveSubscription(ctx, subs[o.walker], api.MoveRequest{X: o.x, Y: o.y})
		s.err, s.epoch, s.neighbors, s.pages = err, res.Epoch, res.Neighbors, res.Cost.Pages
		s.safeHit = meta.SafeRegion == "hit"
		s.anchor = geom.Vec2{X: res.AnchorX, Y: res.AnchorY}
	case opUpsert:
		res, _, err := c.Upsert(ctx, api.UpsertRequest{Objects: o.objs})
		s.err, s.epoch, s.published = err, res.Epoch, err == nil
	case opDelete:
		res, _, err := c.Delete(ctx, api.DeleteRequest{IDs: o.ids})
		s.err, s.epoch, s.published = err, res.Epoch, err == nil && res.Deleted > 0
	}
	return s
}

// pass describes one load pass over an op stream.
type pass struct {
	url     string
	ops     []op
	subs    []uint64
	clients int           // concurrent clients (= connections)
	rate    float64       // ops/s for an open loop; 0 runs a closed loop
	length  time.Duration // stop issuing after this long
	maxOps  int           // and after this many ops (0: the whole stream)
	tr      *tracer
	after   func() // called on the client goroutine after each op
}

// run drives the pass and returns its samples in request order plus the
// wall time from the first send to the last completion.
func (p pass) run(ctx context.Context) ([]sample, time.Duration) {
	n := len(p.ops)
	if p.maxOps > 0 && p.maxOps < n {
		n = p.maxOps
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(p.length)
	var interval time.Duration
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	for w := 0; w < p.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, done := newClient(p.url)
			defer done()
			var mine []sample
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				sched := time.Now()
				idle := false
				if p.rate > 0 {
					sched = t0.Add(time.Duration(i) * interval)
					if d := time.Until(sched); d > 0 {
						idle = true
						time.Sleep(d)
					}
				}
				if sched.After(deadline) {
					break
				}
				p.tr.begin(i)
				start := time.Now()
				s := execute(ctx, c, &p.ops[i], p.subs)
				s.end = time.Now()
				p.tr.record("client", "", i, start, s.end)
				s.req, s.sched, s.start, s.idle = i, sched, start, idle
				if idle {
					s.late = start.Sub(sched)
				}
				mine = append(mine, s)
				if p.after != nil {
					p.after()
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	var last time.Time
	for _, s := range samples {
		if s.end.After(last) {
			last = s.end
		}
	}
	sortByReq(samples)
	return samples, last.Sub(t0)
}
