package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	maxOps   int
	rate     float64
	workDir  string
	log      io.Writer // warnings
}

// spec describes one workload: how to set its system up, the op stream it
// sends, and how the load arrives.
type spec struct {
	name     string
	fleet    bool
	clients  int
	rate     float64 // ops/s of an open loop; 0 is a closed loop
	perEpoch int     // oracle sample per epoch and op kind; 0 checks every answer
	walkers  int     // continuous subscriptions to register before the load
	// maxRate bounds the closed-loop op rate, sizing the generated stream.
	maxRate float64
	gen     func(sys *system, seed int64, n int) ([]op, error)
}

// trackingRate is the tracking-mixed open-loop arrival rate. The mix
// sustains about 110 ops/s in a closed loop with two clients on two cores
// (measured with --rate -1); at half that, queueing turned the machine's
// speed noise into a 25% run-to-run spread of knn_p50_ms, so the rate is
// about a quarter of it.
const trackingRate = 30.0

// moveStep is the walkers' per-axis step length in metres: small enough
// that a measurable share of moves stays inside the safe region.
const moveStep = 0.5

// walkerK is every subscription's k, as in BenchmarkContinuousKNN. One k
// for all walkers keeps a seed from giving the costly k=10 re-evaluations
// to a few unlucky walker positions.
const walkerK = 3

var specs = map[string]spec{
	// knn-static: every query point unique, so the result cache never hits
	// and the whole ~400-page store sits in the default 4096-page pool: the
	// engine (SDN/DDM/pathnet kernels and the ranker) does the work.
	"knn-static": {name: "knn-static", clients: 2, maxRate: 400, gen: genKNN(0)},
	// tracking-mixed: 40% subscription moves, 40% k-NN over a hot set of
	// 16 points, 20% inserts/deletes publishing epochs beside the reads.
	"tracking-mixed": {name: "tracking-mixed", clients: 2, rate: trackingRate, maxRate: 400, perEpoch: 2, walkers: numWalkers, gen: genTracking},
	// fleet-cold: the knn-static queries over a 2×2 fleet with cold
	// quarter-size shard pools, plus an upsert through the coordinator on
	// one op in 20.
	"fleet-cold": {name: "fleet-cold", fleet: true, clients: 2, maxRate: 400, gen: genKNN(20)},
}

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){}

func init() {
	for name, sp := range specs {
		sp := sp
		workloads[name] = func(ctx context.Context, cfg runConfig) (*outcome, error) {
			if cfg.rate != 0 && sp.rate > 0 {
				sp.rate = max(cfg.rate, 0)
			}
			if cfg.trace {
				return runTraced(ctx, sp, cfg)
			}
			return runMeasured(ctx, sp, cfg)
		}
	}
}

// knnOp is the c-th k-NN request at p: k cycles through knnKs and every
// fourth request uses the SKQL spelling.
func knnOp(c int, p geom.Vec2) op {
	return op{kind: opKNN, x: p.X, y: p.Y, k: knnKs[c%len(knnKs)], skql: c%4 == 3}
}

// genKNN streams k-NN requests over the unique shared query points; with
// upsertEvery > 0 every upsertEvery-th op is instead an insert of a new
// object.
func genKNN(upsertEvery int) func(*system, int64, int) ([]op, error) {
	return func(sys *system, seed int64, n int) ([]op, error) {
		db := shadowSource(sys)
		qs, err := sharedQueries(db, seed, n)
		if err != nil {
			return nil, err
		}
		var mix *workload.UpdateMix
		if upsertEvery > 0 {
			mix, err = workload.NewUpdateMix(db.Mesh, db.Loc, sys.objs,
				workload.MixConfig{InsertWeight: 1, Seed: subSeed(seed, streamUpdates)})
			if err != nil {
				return nil, err
			}
		}
		ops := make([]op, 0, n)
		c := 0
		for i := 0; i < n; i++ {
			if upsertEvery > 0 && i%upsertEvery == upsertEvery-1 {
				ops = append(ops, updateOp(mix.Next()))
				continue
			}
			ops = append(ops, knnOp(c, qs[c].XY()))
			c++
		}
		return ops, nil
	}
}

// updateOp converts an update-mix op to its wire form.
func updateOp(u workload.Op) op {
	if u.Kind == workload.OpDelete {
		return op{kind: opDelete, ids: u.IDs}
	}
	o := op{kind: opUpsert}
	for _, obj := range u.Objects {
		id := obj.ID
		o.objs = append(o.objs, api.UpsertObject{ID: &id, X: obj.Point.Pos.X, Y: obj.Point.Pos.Y})
	}
	return o
}

// hotSet is how many shared query points are hot at once in the tracking
// mix; the window drifts one point forward every hotDrift k-NN requests.
const (
	hotSet   = 16
	hotDrift = 1
)

// genTracking draws the tracking mix: 40% moves of eight random walkers,
// 40% k-NN at one of the 16 currently hot shared points, 20% inserts and
// deletes. The hot window drifts through the shared query set, so
// repeated points give a cache something to keep while a run still
// samples many points (one fixed set of 16 would let the seed decide the
// latency distribution).
func genTracking(sys *system, seed int64, n int) ([]op, error) {
	db := shadowSource(sys)
	hot, err := sharedQueries(db, seed, n/hotDrift+hotSet)
	if err != nil {
		return nil, err
	}
	moves, err := newMoves(db, seed)
	if err != nil {
		return nil, err
	}
	updates, err := workload.NewUpdateMix(db.Mesh, db.Loc, sys.objs,
		workload.MixConfig{InsertWeight: 1, DeleteWeight: 1, Seed: subSeed(seed, streamUpdates)})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamMix)))
	ops := make([]op, 0, n)
	c := 0
	for i := 0; i < n; i++ {
		switch u := rng.Float64(); {
		case u < 0.4:
			m := moves.Next()
			p := m.Point.XY()
			ops = append(ops, op{kind: opMove, walker: m.Walker, x: p.X, y: p.Y})
		case u < 0.8:
			ops = append(ops, knnOp(c, hot[c/hotDrift+rng.Intn(hotSet)].XY()))
			c++
		default:
			ops = append(ops, updateOp(updates.Next()))
		}
	}
	return ops, nil
}

// numWalkers is how many random walkers the tracking mix moves.
const numWalkers = 8

// newMoves is the tracking mix's walker generator.
func newMoves(db *core.TerrainDB, seed int64) (*workload.MoveMix, error) {
	return workload.NewMoveMix(db.Mesh, db.Loc, workload.MoveMixConfig{
		Walkers: numWalkers, Step: moveStep, MoveWeight: 1, Seed: subSeed(seed, streamMoves),
	})
}

// shadowSource is any database with the system's terrain, for generating
// inputs (never queried by the load).
func shadowSource(sys *system) *core.TerrainDB {
	if sys.db != nil {
		return sys.db
	}
	return sys.shards[0]
}

// start sets up the workload's system once.
func (sp spec) start(ctx context.Context, cfg runConfig, tr *tracer) (*system, error) {
	if sp.fleet {
		return startFleet(ctx, cfg.seed, cfg.workDir, tr)
	}
	return startNode(ctx, cfg.seed, tr)
}

// streamLen sizes the generated op stream for a pass of the given length.
func (sp spec) streamLen(d time.Duration) int {
	r := sp.maxRate
	if sp.rate > 0 {
		r = sp.rate
	}
	return int(r*d.Seconds()) + 64
}

// prepared is a system ready for a pass: its op stream and subscriptions.
type prepared struct {
	sys  *system
	ops  []op
	subs []uint64
}

// prepare generates the op stream, registers the walkers' subscriptions and
// warms the system with a few k-NN requests off the shared query set.
func (sp spec) prepare(ctx context.Context, sys *system, cfg runConfig, d time.Duration) (*prepared, error) {
	ops, err := sp.gen(sys, cfg.seed, sp.streamLen(d))
	if err != nil {
		return nil, fmt.Errorf("generating ops: %w", err)
	}
	p := &prepared{sys: sys, ops: ops}
	c, done := newClient(sys.url)
	defer done()
	if sp.walkers > 0 {
		moves, err := newMoves(shadowSource(sys), cfg.seed)
		if err != nil {
			return nil, err
		}
		for w, sp := range moves.Starts() {
			st := sp.XY()
			res, _, err := c.Subscribe(ctx, api.SubscribeRequest{X: st.X, Y: st.Y, K: walkerK})
			if err != nil {
				return nil, fmt.Errorf("subscribing walker %d: %w", w, err)
			}
			p.subs = append(p.subs, res.ID)
		}
	}
	db := shadowSource(sys)
	warm, err := workload.RandomQueries(db.Mesh, db.Loc, 4, queryMargin, subSeed(cfg.seed, streamWarmup))
	if err != nil {
		return nil, err
	}
	for i, q := range warm {
		o := knnOp(i, q.XY())
		if s := execute(ctx, c, &o, nil); s.err != nil {
			return nil, fmt.Errorf("warm-up request: %w", s.err)
		}
	}
	return p, nil
}

// shadow returns the database the oracle checks against: the served
// database itself for a static workload, else a fresh unsharded copy of
// the initial state that the oracle replays updates into.
func (sp spec) shadow(sys *system, seed int64) (*core.TerrainDB, error) {
	if !sp.fleet && sp.walkers == 0 {
		return sys.db, nil
	}
	var st setupTimes
	db, _, err := buildTerrain(seed, core.Config{}, &st)
	return db, err
}

// setups sets the system up setupRepeats times, stopping all but the last
// keep, and returns the kept systems and every set-up's timings. The last
// one is built with tr installed.
func (sp spec) setups(ctx context.Context, cfg runConfig, keep int, tr *tracer) ([]*system, []setupTimes, error) {
	var kept []*system
	var times []setupTimes
	for r := 0; r < setupRepeats; r++ {
		var t *tracer
		if r == setupRepeats-1 {
			t = tr
		}
		sys, err := sp.start(ctx, cfg, t)
		if err != nil {
			for _, s := range kept {
				s.stop()
			}
			return nil, nil, err
		}
		times = append(times, sys.times)
		if r < setupRepeats-keep {
			sys.stop()
			continue
		}
		kept = append(kept, sys)
	}
	return kept, times, nil
}

// runMeasured is the end-to-end run: the workload's load with tracing off.
func runMeasured(ctx context.Context, sp spec, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	systems, times, err := sp.setups(ctx, cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	sys := systems[0]
	defer sys.stop()
	out.set("heap_mb", liveHeapMB())
	setupS := make([]float64, len(times))
	for i, t := range times {
		setupS[i] = t.total.Seconds()
	}
	out.set("setup_s", median(setupS))

	p, err := sp.prepare(ctx, sys, cfg, cfg.duration)
	if err != nil {
		return nil, err
	}
	samples, wall := pass{url: sys.url, ops: p.ops, subs: p.subs, clients: sp.clients,
		rate: sp.rate, length: cfg.duration, maxOps: cfg.maxOps}.run(ctx)
	if len(samples) == 0 {
		return nil, errNoOps
	}
	if late := lateness(samples); sp.rate > 0 && late > 250/sp.rate {
		fmt.Fprintf(cfg.log, "perfbench: the load generator ran late (p95 %.2f ms past schedule): latencies include its stalls\n", late)
	}
	shadow, err := sp.shadow(sys, cfg.seed)
	if err != nil {
		return nil, err
	}
	or := newOracle(shadow, out, nil)
	or.perEpoch, or.skew = sp.perEpoch, sp.fleet
	tally(out, samples)
	or.check(ctx, samples)
	if or.skewed > 0 {
		fmt.Fprintf(cfg.log, "perfbench: oracle: %d answers read the update broadcast in flight (matched the epoch after their X-Epoch)\n", or.skewed)
	}

	var knn, pages []float64
	done := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		done++
		if s.op.kind == opKNN {
			knn = append(knn, ms(s.latency()))
			if s.executed {
				pages = append(pages, float64(s.pages))
			}
		}
	}
	out.set("knn_p50_ms", quantile(knn, 0.5))
	out.set("knn_p95_ms", quantile(knn, 0.95))
	out.set("throughput_ops_s", float64(done)/wall.Seconds())
	out.set("knn_pages", mean(pages))
	return out, nil
}

// lateness is the open-loop generator's p95 send delay past schedule, over
// the ops whose sender was idle when they fell due (ms).
func lateness(samples []sample) float64 {
	var late []float64
	for _, s := range samples {
		if s.idle {
			late = append(late, ms(s.late))
		}
	}
	return quantile(late, 0.95)
}

// tally counts attempted and failed ops.
func tally(out *outcome, samples []sample) {
	out.attempted += len(samples)
	for _, s := range samples {
		if s.err != nil {
			out.failed++
		}
	}
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortByReq(ss []sample) {
	sort.Slice(ss, func(a, b int) bool { return ss[a].req < ss[b].req })
}
