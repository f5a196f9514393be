package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"surfknn/internal/continuous"
	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
	"surfknn/internal/sklang/skexec"
)

// engine is the local Backend: one TerrainDB answered on pooled sessions
// under admission control. Each query lifts its point onto the surface (an
// off-terrain point is a 404), claims an execution slot, checks out a
// session and runs under the request's deadline — the client-supplied
// timeout clamped to MaxTimeout, or DefaultTimeout.
type engine struct {
	db  *core.TerrainDB
	cfg Config
	adm *admission
	mon *continuous.Monitor // continuous-query subsystem; nil without an object store
}

func newEngine(db *core.TerrainDB, cfg Config) *engine {
	e := &engine{
		db:  db,
		cfg: cfg,
		adm: newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, cfg.Stats),
	}
	// The monitor needs the object store's update feed; a database without
	// one (never the case for a served snapshot) simply has the continuous
	// routes answer 500.
	if mon, err := continuous.New(db, continuous.Config{
		MaxSubscriptions: cfg.MaxSubscriptions,
		CoalesceWindow:   cfg.CoalesceWindow,
		Stats:            cfg.ContinuousStats,
	}); err == nil {
		e.mon = mon
	}
	return e
}

// mount registers the routes only a local engine serves — continuous
// subscriptions and the shard fabric — on the front end.
func (e *engine) mount(fe *Server) {
	fe.handle("POST /v1/subscribe", e.handleSubscribe)
	fe.handle("POST /v1/subscribe/{id}/move", e.handleMove)
	fe.handle("DELETE /v1/subscribe/{id}", e.handleUnsubscribe)
	fe.handle("POST /v1/shard/knn2d", e.handleShardKNN2D)
	fe.handle("POST /v1/shard/range2d", e.handleShardRange2D)
	fe.handle("POST /v1/shard/rank", e.handleShardRank)
	fe.handle("POST /v1/shard/ea", e.handleShardEA)
	fe.handle("POST /v1/shard/range", e.handleShardRange)
	fe.handle("POST /v1/shard/objects", e.handleShardObjects)
}

func (e *engine) Catalog() sklang.Catalog {
	return sklang.Catalog{
		Objects: len(e.db.Objects()),
		Faces:   e.db.Mesh.NumFaces(),
		Area:    e.db.Extent().Area(),
	}
}

func (e *engine) Epoch() uint64 { return e.db.CurrentEpoch() }

// requestContext layers the query's deadline over ctx, so a disconnected
// client also cancels the query.
func (e *engine) requestContext(ctx context.Context, timeout api.Duration) (context.Context, context.CancelFunc) {
	d := e.cfg.DefaultTimeout
	if timeout > 0 {
		d = time.Duration(timeout)
		if d > e.cfg.MaxTimeout {
			d = e.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}

// surfacePoint lifts (x,y) onto the terrain; a point outside the surface
// extent is a 404 — the addressed surface location does not exist.
func (e *engine) surfacePoint(x, y float64) (mesh.SurfacePoint, error) {
	q, err := e.db.SurfacePointAt(geom.Vec2{X: x, Y: y})
	if err != nil {
		return mesh.SurfacePoint{}, api.Errorf(http.StatusNotFound, api.CodeNotFound,
			"point (%g, %g) is not on the terrain: %v", x, y, err)
	}
	return q, nil
}

// admit claims an execution slot: a saturated server refuses with 429 and a
// Retry-After hint, a request whose context ends while queued with 408.
// Callers must release on nil.
func (e *engine) admit(ctx context.Context) error {
	err := e.adm.acquire(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errSaturated):
		ae := api.Errorf(http.StatusTooManyRequests, api.CodeSaturated,
			"server saturated (%d executing, %d queued); retry later",
			e.cfg.MaxInFlight, e.cfg.QueueDepth)
		ae.RetryAfter = e.adm.retryAfterSeconds()
		return ae
	default:
		return api.Errorf(http.StatusRequestTimeout, api.CodeTimeout, "request ended while queued: %v", err)
	}
}

// session runs fn on a pooled session under admission control and the
// request deadline. fn's Result aliases session scratch, so it must consume
// what it needs before returning.
func (e *engine) session(ctx context.Context, timeout api.Duration, fn func(context.Context, *core.Session) error) error {
	ctx, cancel := e.requestContext(ctx, timeout)
	defer cancel()
	if err := e.admit(ctx); err != nil {
		return err
	}
	defer e.adm.release()
	sess := e.db.AcquireSession()
	defer e.db.Release(sess)
	return fn(ctx, sess)
}

// toResponse maps an engine result onto the wire.
func toResponse(res core.Result) api.Result {
	out := api.Result{
		Neighbors: make([]api.Neighbor, len(res.Neighbors)),
		Cost: api.Cost{
			Pages:     res.Cost.Pages(),
			CPUUs:     res.Cost.CPU.Microseconds(),
			ElapsedUs: res.Cost.Elapsed.Microseconds(),
		},
	}
	for i, n := range res.Neighbors {
		out.Neighbors[i] = api.Neighbor{
			ID: n.Object.ID,
			X:  n.Object.Point.Pos.X,
			Y:  n.Object.Point.Pos.Y,
			Z:  n.Object.Point.Pos.Z,
			LB: api.Float(n.LB),
			UB: api.Float(n.UB),
		}
	}
	return out
}

// rank lifts (x,y) onto the surface and runs one ranked engine call on a
// pooled session, mapping its result onto the wire.
func (e *engine) rank(ctx context.Context, x, y float64, timeout api.Duration, call func(context.Context, *core.Session, mesh.SurfacePoint) (core.Result, error)) (api.Result, uint64, error) {
	q, err := e.surfacePoint(x, y)
	if err != nil {
		return api.Result{}, 0, err
	}
	var out api.Result
	var epoch uint64
	err = e.session(ctx, timeout, func(ctx context.Context, sess *core.Session) error {
		res, err := call(ctx, sess, q)
		out, epoch = toResponse(res), res.Epoch
		return err
	})
	return out, epoch, err
}

// The schedule and options translations below cannot fail on requests the
// front end passed; they are the same calls that validated them.

func (e *engine) KNN(ctx context.Context, req api.KNNRequest) (api.Result, uint64, error) {
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return api.Result{}, 0, err
	}
	return e.rank(ctx, req.X, req.Y, req.Timeout, func(ctx context.Context, sess *core.Session, q mesh.SurfacePoint) (core.Result, error) {
		return sess.MR3Ctx(ctx, q, req.K, sched, opt)
	})
}

func (e *engine) Range(ctx context.Context, req api.RangeRequest) (api.Result, uint64, error) {
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return api.Result{}, 0, err
	}
	return e.rank(ctx, req.X, req.Y, req.Timeout, func(ctx context.Context, sess *core.Session, q mesh.SurfacePoint) (core.Result, error) {
		return sess.SurfaceRangeCtx(ctx, q, req.Radius, sched, opt)
	})
}

// Distance answers at the current epoch: a surface distance depends only on
// the immutable terrain.
func (e *engine) Distance(ctx context.Context, req api.DistanceRequest) (api.DistanceResponse, uint64, error) {
	sched, err := checkSched(req.Sched)
	if err != nil {
		return api.DistanceResponse{}, 0, err
	}
	a, err := e.surfacePoint(req.X, req.Y)
	if err != nil {
		return api.DistanceResponse{}, 0, err
	}
	b, err := e.surfacePoint(req.X2, req.Y2)
	if err != nil {
		return api.DistanceResponse{}, 0, err
	}
	var out api.DistanceResponse
	err = e.session(ctx, req.Timeout, func(ctx context.Context, sess *core.Session) error {
		dr, err := sess.DistanceWithAccuracyCtx(ctx, a, b, req.Accuracy, sched)
		out = wireDistance(dr)
		return err
	})
	return out, e.db.CurrentEpoch(), err
}

func wireDistance(dr core.DistanceRange) api.DistanceResponse {
	return api.DistanceResponse{
		LB:       api.Float(dr.LB),
		UB:       api.Float(dr.UB),
		Accuracy: dr.Accuracy, Iterations: dr.Iterations,
	}
}

// run executes a compiled plan on a pooled session; consume reads the
// outcome before the session goes back to the pool.
func (e *engine) run(ctx context.Context, plan *sklang.Plan, timeout api.Duration, consume func(*skexec.Outcome)) error {
	return e.session(ctx, timeout, func(ctx context.Context, sess *core.Session) error {
		out, err := skexec.Run(ctx, sess, plan)
		if errors.Is(err, skexec.ErrOffTerrain) {
			return api.Errorf(http.StatusNotFound, api.CodeNotFound, "%v", err)
		}
		if err != nil {
			return err
		}
		consume(out)
		return nil
	})
}

// Query runs one statement. The SUBSCRIBE form registers a live
// subscription — the same monitor path as POST /v1/subscribe.
func (e *engine) Query(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.QueryResponse, uint64, error) {
	resp := api.QueryResponse{Form: plan.Form, Algorithm: string(plan.Algo)}
	if plan.Form == "subscribe" {
		sched, opt, err := checkQuery(plan.Sched, plan.Options)
		if err != nil {
			return resp, 0, err
		}
		sub, err := e.subscribe(ctx, plan.X, plan.Y, plan.K, sched, opt, timeout)
		if err != nil {
			return resp, 0, err
		}
		resp.Result = sub.Result
		resp.Subscription = &sub
		return resp, sub.Epoch, nil
	}
	var epoch uint64
	err := e.run(ctx, plan, timeout, func(out *skexec.Outcome) {
		epoch = out.Result.Epoch
		resp.Result = toResponse(out.Result) // the distance form: a cost shell
		if plan.Form == "distance" {
			d := wireDistance(out.Distance)
			resp.Distance = &d
		}
	})
	return resp, epoch, err
}

// Explain executes the statement and returns the annotated plan tree. The
// SUBSCRIBE form is evaluated once (MR3 + safe region) without registering
// a subscription.
func (e *engine) Explain(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.PlanNode, uint64, error) {
	var epoch uint64
	err := e.run(ctx, plan, timeout, func(out *skexec.Outcome) { epoch = out.Result.Epoch })
	if err != nil {
		return api.PlanNode{}, 0, err
	}
	return plan.Root.Wire(), epoch, nil
}

// Healthz reports the loaded snapshot's shape and provenance, and the shard
// identity when this process serves one tile of a sharded deployment.
func (e *engine) Healthz(context.Context) (api.Healthz, error) {
	return api.Healthz{
		Status:        "ok",
		Vertices:      e.db.Mesh.NumVerts(),
		Faces:         e.db.Mesh.NumFaces(),
		Objects:       len(e.db.Objects()),
		Epoch:         e.db.CurrentEpoch(),
		FormatVersion: e.db.FormatVersion(),
		ShardID:       e.cfg.ShardID,
	}, nil
}
