package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/sdn"
	"surfknn/internal/sklang"
	"surfknn/internal/stats"
)

// Fixed op counts of the exact passes: their counts repeat bit for bit on
// a given seed, however long the timed passes ran.
const (
	exactQueries  = 30 // k-NN queries of the exact-count pass
	kernelQueries = 24 // traced k-NN answers whose (query, answer) pairs feed the kernels
	knn2dPoints   = 16 // shared points of the objstore 2-D index pass
	knn2dRounds   = 20
)

// counters snapshots the program's own counters around a pass.
type counters struct {
	cacheHits, cacheMisses, rejected, timedOut int64
	regionHits, regionMisses                   int64
	invalidations, revalidations               int64
	stripes, stripeQueries                     int64
	pruned                                     int64
	pool                                       [3]int64 // accesses, misses, evictions
}

func readCounters(sys *system) counters {
	var c counters
	for _, srv := range sys.servers() {
		st := srv.Stats()
		c.cacheHits += st.CacheHits.Value()
		c.cacheMisses += st.CacheMisses.Value()
		c.rejected += st.Rejected.Value()
		c.timedOut += st.TimedOut.Value()
		cs := srv.ContinuousStats()
		c.regionHits += cs.RegionHits.Value()
		c.regionMisses += cs.RegionMisses.Value()
		c.invalidations += cs.Invalidations.Value()
		c.revalidations += cs.Revalidations.Value()
		c.stripes += cs.Stripes.Value()
		c.stripeQueries += cs.StripeQueries.Value()
	}
	if sys.coord != nil {
		c.pruned = sys.coord.Stats().PrunedShards.Value()
	}
	for _, db := range sys.servingDBs() {
		ps := db.Pool.Stats()
		c.pool[0] += ps.Accesses
		c.pool[1] += ps.Misses
		c.pool[2] += ps.Evictions
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses, c.rejected - o.rejected, c.timedOut - o.timedOut,
		c.regionHits - o.regionHits, c.regionMisses - o.regionMisses,
		c.invalidations - o.invalidations, c.revalidations - o.revalidations,
		c.stripes - o.stripes, c.stripeQueries - o.stripeQueries,
		c.pruned - o.pruned,
		[3]int64{c.pool[0] - o.pool[0], c.pool[1] - o.pool[1], c.pool[2] - o.pool[2]},
	}
}

// runTraced is the per-layer run. Each pass gets its own freshly set-up
// system: for an open-loop workload first the measured configuration
// untraced (lateness, per-op latencies, allocation rates); then one client
// untraced (A); then one client with spans at every layer boundary (B)
// replaying exactly the ops A completed, so B against A is the tracing
// overhead. The oracle's direct answers to B's requests are the core rung,
// and fixed-count passes on a fresh database give the exact counts.
func runTraced(ctx context.Context, sp spec, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	passes := 2
	if sp.rate > 0 {
		passes = 3
	}
	systems, times, err := sp.setups(ctx, cfg, passes, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range systems {
			s.stop()
		}
	}()
	setupMetrics(out, times)
	slice := cfg.duration / time.Duration(passes)

	// runPass prepares sys, reads its counters, runs p on it and checks the
	// answers; delta is what the program counted during the pass.
	runPass := func(sys *system, p pass, t *tracer) (samples []sample, wall time.Duration, or *oracle, delta counters, err error) {
		t.begin(-1)
		pr, err := sp.prepare(ctx, sys, cfg, slice)
		if err != nil {
			return nil, 0, nil, delta, err
		}
		p.url, p.ops, p.subs = sys.url, pr.ops, pr.subs
		before := readCounters(sys)
		samples, wall = p.run(ctx)
		delta = readCounters(sys).minus(before)
		if len(samples) == 0 {
			return nil, 0, nil, delta, errNoOps
		}
		shadow, err := sp.shadow(sys, cfg.seed)
		if err != nil {
			return nil, 0, nil, delta, err
		}
		or = newOracle(shadow, out, t)
		or.perEpoch, or.skew = sp.perEpoch, sp.fleet
		if t != nil {
			or.perEpoch = 0 // the traced pass is short: check, and time, every answer
		}
		tally(out, samples)
		or.check(ctx, samples)
		return samples, wall, or, delta, nil
	}

	var ref []sample
	var refMem [2]runtime.MemStats
	i := 0
	if sp.rate > 0 {
		runtime.ReadMemStats(&refMem[0])
		ref, _, _, _, err = runPass(systems[0], pass{clients: sp.clients, rate: sp.rate, length: slice, maxOps: cfg.maxOps}, nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&refMem[1])
		out.set("harness.lateness_p95_ms", lateness(ref))
		i++
	}

	var memA [2]runtime.MemStats
	runtime.ReadMemStats(&memA[0])
	samplesA, wallA, _, _, err := runPass(systems[i], pass{clients: 1, length: slice, maxOps: cfg.maxOps}, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&memA[1])
	if ref == nil {
		ref, refMem = samplesA, memA
	}
	runtimeMetrics(out, ref, refMem)
	opMetrics(out, ref)

	sysB := systems[i+1]
	live := 0
	samplesB, wallB, orB, delta, err := runPass(sysB, pass{
		clients: 1, length: 10 * slice, maxOps: len(samplesA), tr: tr,
		after: func() {
			for _, db := range sysB.servingDBs() {
				live = max(live, db.ObjectStore().LiveEpochs())
			}
		},
	}, tr)
	if err != nil {
		return nil, err
	}
	out.set("harness.trace_overhead", wallB.Seconds()/wallA.Seconds()-1)
	out.set("objstore.live_epochs_max", float64(live))

	exactDB, _, err := buildTerrain(cfg.seed, core.Config{}, &setupTimes{})
	if err != nil {
		return nil, err
	}
	if err := exactPass(ctx, exactDB, cfg.seed, out); err != nil {
		return nil, err
	}
	kernelPass(exactDB, orB, tr, out)
	if err := knn2dPass(exactDB, orB.db, cfg.seed, out); err != nil {
		return nil, err
	}
	compilePass(exactDB, samplesB, tr)

	tr.link()
	spanMetrics(out, tr, samplesB, orB)
	counterMetrics(out, delta, samplesB, tr)
	out.set("objstore.apply_p50_us", median(usOf(orB.applies)))
	out.set("harness.error_rate", ratio(float64(out.failed), float64(out.attempted)))

	path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", sp.name, cfg.seed))
	if err := tr.write(path, sp.name, cfg.seed); err != nil {
		return nil, err
	}
	return out, nil
}

func setupMetrics(out *outcome, times []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs)
	}
	out.set("setup.dem_s", pick(func(t setupTimes) float64 { return t.dem.Seconds() }))
	out.set("setup.mesh_s", pick(func(t setupTimes) float64 { return t.mesh.Seconds() }))
	out.set("setup.build_db_s", pick(func(t setupTimes) float64 { return t.build.Seconds() }))
	out.set("setup.cut_s", pick(func(t setupTimes) float64 { return t.cut.Seconds() }))
	out.set("setup.load_s", pick(func(t setupTimes) float64 { return t.load.Seconds() }))
	out.set("setup.snapshot_mb", pick(func(t setupTimes) float64 { return float64(t.snapshotBytes) / 1e6 }))
}

func runtimeMetrics(out *outcome, ref []sample, m [2]runtime.MemStats) {
	n := float64(len(ref))
	out.set("runtime.alloc_bytes_per_op", ratio(float64(m[1].TotalAlloc-m[0].TotalAlloc), n))
	out.set("runtime.gc_cycles_per_kop", ratio(1000*float64(m[1].NumGC-m[0].NumGC), n))
}

// opMetrics reports the per-kind latencies of the untraced reference pass.
func opMetrics(out *outcome, ref []sample) {
	var upd, mov []float64
	for _, s := range ref {
		if s.err != nil {
			continue
		}
		switch s.op.kind {
		case opUpsert, opDelete:
			upd = append(upd, ms(s.latency()))
		case opMove:
			mov = append(mov, ms(s.latency()))
		}
	}
	out.set("ops.update_p50_ms", quantile(upd, 0.5))
	out.set("ops.update_p95_ms", quantile(upd, 0.95))
	out.set("ops.move_p50_ms", quantile(mov, 0.5))
	out.set("ops.move_p95_ms", quantile(mov, 0.95))
}

// spanMetrics derives the ladder's self times from the traced pass.
func spanMetrics(out *outcome, tr *tracer, samplesB []sample, or *oracle) {
	self := tr.self()
	full := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		full[i] = s.dur()
	}
	kind := map[int]opKind{}
	for _, s := range samplesB {
		kind[s.req] = s.op.kind
	}
	isKNN := func(req int) bool { k, ok := kind[req]; return ok && k == opKNN }

	var clientSelf, coordSelf, upsert []float64
	for i, s := range tr.spans {
		switch {
		case s.Name == "client" && isKNN(s.Req):
			clientSelf = append(clientSelf, ms(self[i]))
		case s.Name == "coord.serve" && isKNN(s.Req):
			coordSelf = append(coordSelf, ms(self[i]))
		case s.Name == "coord.serve" && kind[s.Req] == opUpsert && s.Req >= 0:
			upsert = append(upsert, ms(full[i]))
		}
	}
	out.set("client.roundtrip_self_p50_ms", median(clientSelf))
	out.set("shard.coord_self_p50_ms", median(coordSelf))
	out.set("shard.upsert_p50_ms", median(upsert))
	for _, rpc := range []string{"knn2d", "range2d", "rank"} {
		out.set("shard.rpc_"+rpc+"_p50_ms", median(tr.durations("shard.rpc."+rpc, full)))
	}

	// The handler's own time: ServeHTTP minus the direct MR3Ctx call on the
	// same query (the next rung down answers the same request).
	serve := tr.byReq("server.serve", full)
	var handlerSelf, mr3, cpu []float64
	phases := map[string][]float64{}
	for req, r := range or.replays {
		mr3 = append(mr3, ms(r.wall))
		cpu = append(cpu, ms(r.cpu))
		for _, p := range r.phases {
			phases[p.Phase] = append(phases[p.Phase], ms(p.Wall))
		}
		if d, ok := serve[req]; ok && isKNN(req) {
			handlerSelf = append(handlerSelf, ms(d-r.wall))
		}
	}
	out.set("server.handler_self_p50_ms", median(handlerSelf))
	out.set("core.mr3_p50_ms", median(mr3))
	out.set("core.mr3_p95_ms", quantile(mr3, 0.95))
	out.set("core.cpu_p50_ms", median(cpu))
	out.set("core.phase_knn2d_ms", median(phases[stats.PhaseKNN2D]))
	out.set("core.phase_rank_c1_ms", median(phases[stats.PhaseRankC1]))
	out.set("core.phase_range2d_ms", median(phases[stats.PhaseRange2D]))
	out.set("core.phase_rank_c2_ms", median(phases[stats.PhaseRankC2]))
	out.set("sklang.compile_p50_us", 1000*median(tr.durations("sklang.compile", full)))

	// Along the single-node ladder the self times add up, request by
	// request, to the traced loopback latency; the residual is how far the
	// sum of their medians lands from the loopback median.
	if len(serve) > 0 {
		sum := median(clientSelf) + median(handlerSelf) + median(mr3)
		var loop []float64
		for i, s := range tr.spans {
			if s.Name == "client" && isKNN(s.Req) {
				loop = append(loop, ms(full[i]))
			}
		}
		out.set("harness.ladder_residual", ratio(sum, median(loop))-1)
	}
}

// counterMetrics turns the program's counter deltas over the traced pass
// into ratios per fixed op.
func counterMetrics(out *outcome, d counters, samplesB []sample, tr *tracer) {
	var knn, updates float64
	knnReq := map[int]bool{}
	for _, s := range samplesB {
		switch s.op.kind {
		case opKNN:
			knn++
			knnReq[s.req] = true
		case opUpsert, opDelete:
			if s.published {
				updates++
			}
		}
	}
	out.set("server.cache_hit_ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses)))
	out.set("server.rejected", float64(d.rejected))
	out.set("server.timed_out", float64(d.timedOut))
	out.set("continuous.safe_hit_ratio", ratio(float64(d.regionHits), float64(d.regionHits+d.regionMisses)))
	out.set("continuous.invalidations_per_update", ratio(float64(d.invalidations), updates))
	out.set("continuous.revalidation_ratio", ratio(float64(d.revalidations), float64(d.invalidations+d.revalidations)))
	out.set("continuous.stripe_fill", ratio(float64(d.stripeQueries), float64(d.stripes)))
	out.set("storage.pool_miss_ratio", ratio(float64(d.pool[1]), float64(d.pool[0])))
	out.set("storage.evictions_per_knn", ratio(float64(d.pool[2]), knn))

	rpcs, range2d := 0, 0
	for _, s := range tr.spans {
		if !knnReq[s.Req] {
			continue
		}
		switch s.Name {
		case "shard.rpc.knn2d", "shard.rpc.rank":
			rpcs++
		case "shard.rpc.range2d":
			rpcs++
			range2d++
		}
	}
	out.set("shard.rpcs_per_knn", ratio(float64(rpcs), knn))
	out.set("shard.pruned_ratio", ratio(float64(d.pruned), float64(d.pruned)+float64(range2d)))
}

// exactPass runs a fixed stream of the shared queries on one warm session
// and reports exact per-query work counts and allocations.
func exactPass(ctx context.Context, db *core.TerrainDB, seed int64, out *outcome) error {
	qs, err := sharedQueries(db, seed, exactQueries)
	if err != nil {
		return err
	}
	sess := db.AcquireSession()
	defer db.Release(sess)
	run := func() (stats.PhaseCost, int64, error) {
		var tot stats.PhaseCost
		var pages int64
		for i, q := range qs {
			res, err := sess.MR3Ctx(ctx, q, knnKs[i%len(knnKs)], core.S1, core.Options{})
			if err != nil {
				return tot, 0, fmt.Errorf("exact pass: %w", err)
			}
			t := res.Cost.Total()
			pages += res.Cost.Pages()
			tot.PoolHits += t.PoolHits
			tot.PoolMisses += t.PoolMisses
			tot.RTreeVisits += t.RTreeVisits
			tot.Relaxations += t.Relaxations
			tot.UpperBounds += t.UpperBounds
			tot.LowerBounds += t.LowerBounds
			tot.Iterations += t.Iterations
			tot.Candidates += t.Candidates
		}
		return tot, pages, nil
	}
	if _, _, err := run(); err != nil { // warm the session scratch
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tot, pages, err := run()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	n := float64(len(qs))
	out.set("core.pages_per_query", float64(pages)/n)
	out.set("core.upper_bounds", float64(tot.UpperBounds)/n)
	out.set("core.lower_bounds", float64(tot.LowerBounds)/n)
	out.set("core.iterations", float64(tot.Iterations)/n)
	out.set("core.candidates", float64(tot.Candidates)/n)
	out.set("core.relaxations", float64(tot.Relaxations)/n)
	out.set("core.pool_accesses", float64(tot.PoolHits+tot.PoolMisses)/n)
	out.set("core.rtree_visits", float64(tot.RTreeVisits)/n)
	out.set("core.allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/n)
	return nil
}

// kernelPass times the kernels over the (query, answer) pairs of the first
// traced k-NN answers, at every resolution of the default schedule: the SDN
// lower-bound chain, the DDM upper-bound estimator over the edges live at
// the step's level of detail, and the pathnet Dijkstra.
func kernelPass(db *core.TerrainDB, or *oracle, tr *tracer, out *outcome) {
	reqs := make([]int, 0, len(or.replays))
	for req := range or.replays {
		reqs = append(reqs, req)
	}
	sort.Ints(reqs)
	if len(reqs) > kernelQueries {
		reqs = reqs[:kernelQueries]
	}
	var (
		sc     sdn.Scratch
		est    = multires.NewEstimator(db.Tree)
		path   = db.Path.NewQuerier()
		lb, ub []float64
		pn     []float64
		relax  int64
		calls  int
		edges  []int32
		sched  = core.S1
		extent = db.Mesh.Extent()
	)
	for _, req := range reqs {
		r := or.replays[req]
		for _, nb := range r.answer {
			o := nb.Object.Point
			region := extent
			if !math.IsInf(nb.UB, 1) {
				if e := geom.NewEllipse(r.q.XY(), o.XY(), nb.UB).MBR(); !e.IsEmpty() {
					region = e
				}
			}
			edges = edgesIn(db, region, edges[:0])
			for step := 0; step < sched.Steps(); step++ {
				dmRes, sdnRes := sched.At(step)
				start := time.Now()
				db.MSDN.LowerBoundScratch(&sc, r.q.Pos, o.Pos, region, sdnRes)
				end := time.Now()
				tr.record("sdn.lower_bound", "", req, start, end)
				lb = append(lb, us(end.Sub(start)))
				if dmRes >= core.PathnetResolution {
					continue
				}
				tm := db.Tree.TimeForResolution(dmRes)
				start = time.Now()
				est.Begin(tm)
				for _, id := range edges {
					est.AddEdge(id)
				}
				est.UpperBound(db.Mesh, r.q, o)
				end = time.Now()
				tr.record("multires.upper_bound", "", req, start, end)
				ub = append(ub, us(end.Sub(start)))
			}
			r0 := path.Relaxations()
			start := time.Now()
			path.DistanceValue(r.q, o)
			end := time.Now()
			tr.record("pathnet.distance", "", req, start, end)
			pn = append(pn, us(end.Sub(start)))
			relax += path.Relaxations() - r0
			calls++
		}
	}
	out.set("sdn.lower_bound_p50_us", median(lb))
	out.set("multires.upper_bound_p50_us", median(ub))
	out.set("pathnet.distance_p50_us", median(pn))
	out.set("pathnet.relaxations_per_call", ratio(float64(relax), float64(calls)))
}

// edgesIn lists the DDM edges whose box meets region (the superset a paged
// fetch of the region returns; AddEdge drops those not live at the LOD).
func edgesIn(db *core.TerrainDB, region geom.MBR, dst []int32) []int32 {
	for i, e := range db.Tree.Edges {
		minX, minY, maxX, maxY := db.Tree.EdgeMBR(e)
		if region.Intersects(geom.MBR{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// knn2dPass times the object index's step-1 and step-3 calls (KNNInto then
// WithinDistInto) on a quiesced store and on the traced pass's final store,
// which carries the update delta on a dynamic workload.
func knn2dPass(quiesced, live *core.TerrainDB, seed int64, out *outcome) error {
	pts, err := sharedQueries(quiesced, seed, knn2dPoints)
	if err != nil {
		return err
	}
	q, _ := knn2dTimes(quiesced, pts)
	l, allocs := knn2dTimes(live, pts)
	out.set("objstore.knn2d_quiesced_p50_us", q)
	out.set("objstore.knn2d_p50_us", l)
	out.set("objstore.knn2d_allocs", allocs)
	return nil
}

func knn2dTimes(db *core.TerrainDB, pts []mesh.SurfacePoint) (p50us, allocsPerCall float64) {
	ep := db.ObjectStore().Pin()
	defer ep.Release()
	var (
		sc     index.Scratch
		visits int64
		a, b   = make([]index.Item, 0, 64), make([]index.Item, 0, 256)
		times  []float64
	)
	call := func(p geom.Vec2) {
		a = ep.KNNInto(p, knnKs[len(knnKs)-1], &visits, &sc, a[:0])
		r := 0.0
		if len(a) > 0 {
			r = 1.5 * p.Dist(a[len(a)-1].P)
		}
		b = ep.WithinDistInto(p, r, &visits, b[:0])
	}
	for _, p := range pts { // warm the scratch
		call(p.XY())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range pts {
		call(p.XY())
	}
	runtime.ReadMemStats(&m1)
	for r := 0; r < knn2dRounds; r++ {
		for _, p := range pts {
			start := time.Now()
			call(p.XY())
			times = append(times, us(time.Since(start)))
		}
	}
	return median(times), float64(m1.Mallocs-m0.Mallocs) / float64(len(pts))
}

// compilePass times the SKQL front end on every SKQL request of the traced
// pass, against the catalog a server over db plans with.
func compilePass(db *core.TerrainDB, samples []sample, tr *tracer) {
	cat := sklang.Catalog{Objects: len(db.Objects()), Faces: db.Mesh.NumFaces(), Area: db.Mesh.Extent().Area()}
	for _, s := range samples {
		if s.op.kind != opKNN || !s.op.skql {
			continue
		}
		stmt := s.op.statement()
		start := time.Now()
		_, err := sklang.Compile(stmt, cat)
		end := time.Now()
		if err == nil {
			tr.record("sklang.compile", "", s.req, start, end)
		}
	}
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
