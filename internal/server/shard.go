package server

// Shard-fabric endpoints: the decomposed MR3 primitives under /v1/shard/*
// that a scatter-gather coordinator (internal/shard) drives against this
// process when it serves one tile of a sharded deployment. The local engine
// mounts them unconditionally — a server that never sees a coordinator
// simply never receives them — and they speak the api.Shard* wire types.
//
// Admission: the 2-D primitives (knn2d, range2d) are cheap index reads on a
// pooled session's scratch and bypass the admission semaphore like the
// object-update routes; the ranking
// primitives (rank, ea, range) run the full multiresolution machinery and
// are admitted exactly like public queries. Shard responses are never
// cached: the coordinator's public-facing responses are what benefit from
// caching, and it caches per assembled answer, not per fragment.

import (
	"context"
	"math"
	"net/http"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

// maxShardBodyBytes bounds the shard-fabric request bodies, which carry
// gathered candidate sets and so are legitimately larger than public ones.
const maxShardBodyBytes = 16 << 20

// toCandidates maps an object slice onto the wire, carrying the exact
// surface point including the mesh face (see api.Candidate).
func toCandidates(objs []workload.Object) []api.Candidate {
	out := make([]api.Candidate, len(objs))
	for i, o := range objs {
		out[i] = api.Candidate{
			ID:   o.ID,
			X:    o.Point.Pos.X,
			Y:    o.Point.Pos.Y,
			Z:    o.Point.Pos.Z,
			Face: int32(o.Point.Face),
		}
	}
	return out
}

// candidateObjects validates and maps wire candidates back onto engine
// objects; a face id outside the local mesh is a 400.
func (e *engine) candidateObjects(cands []api.Candidate) ([]workload.Object, error) {
	nf := e.db.Mesh.NumFaces()
	objs := make([]workload.Object, len(cands))
	for i, c := range cands {
		if c.Face < 0 || int(c.Face) >= nf {
			return nil, badRequest("candidates[%d]: face %d outside mesh (%d faces)", i, c.Face, nf)
		}
		objs[i] = workload.Object{
			ID: c.ID,
			Point: mesh.SurfacePoint{
				Pos:  geom.Vec3{X: c.X, Y: c.Y, Z: c.Z},
				Face: mesh.FaceID(c.Face),
			},
		}
	}
	return objs, nil
}

// shardResult wraps a ranked answer for the fabric wire.
func shardResult(res api.Result, epoch uint64) api.ShardResult {
	return api.ShardResult{Epoch: epoch, Neighbors: res.Neighbors, Cost: res.Cost}
}

// --- POST /v1/shard/knn2d ---

func (e *engine) handleShardKNN2D(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardKNN2DRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkK(req.K); err != nil {
		return err
	}
	sess := e.db.AcquireSession()
	defer e.db.Release(sess)
	objs, epoch := sess.KNN2D(geom.Vec2{X: req.X, Y: req.Y}, req.K)
	setEpoch(w, epoch)
	return writeBody(w, api.CandidatesResponse{Epoch: epoch, Candidates: toCandidates(objs)})
}

// --- POST /v1/shard/range2d ---

func (e *engine) handleShardRange2D(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardRange2DRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	// Radius zero is legal here (unlike the public range route): the
	// coordinator forwards MR3's k-th upper bound verbatim, and a query
	// point sitting exactly on an object yields a zero bound.
	if !(req.Radius >= 0) || math.IsInf(req.Radius, 1) {
		return badRequest("radius must be a non-negative finite distance, got %g", req.Radius)
	}
	sess := e.db.AcquireSession()
	defer e.db.Release(sess)
	objs, epoch := sess.Range2D(geom.Vec2{X: req.X, Y: req.Y}, req.Radius)
	setEpoch(w, epoch)
	return writeBody(w, api.CandidatesResponse{Epoch: epoch, Candidates: toCandidates(objs)})
}

// --- POST /v1/shard/rank ---

func (e *engine) handleShardRank(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardRankRequest
	if err := decode(w, r, &req, maxShardBodyBytes); err != nil {
		return err
	}
	if err := checkK(req.K); err != nil {
		return err
	}
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return err
	}
	objs, err := e.candidateObjects(req.Candidates)
	if err != nil {
		return err
	}
	res, epoch, err := e.rank(r.Context(), req.X, req.Y, req.Timeout, func(ctx context.Context, sess *core.Session, q mesh.SurfacePoint) (core.Result, error) {
		return sess.RankCandidatesCtx(ctx, q, objs, req.K, sched, opt, req.Tighten)
	})
	return writeShardResult(w, shardResult(res, epoch), err)
}

// writeShardResult writes a ranking primitive's answer, or passes its
// failure on.
func writeShardResult(w http.ResponseWriter, res api.ShardResult, err error) error {
	if err != nil {
		return err
	}
	setEpoch(w, res.Epoch)
	return writeBody(w, res)
}

// --- POST /v1/shard/ea ---

func (e *engine) handleShardEA(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardEARequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkK(req.K); err != nil {
		return err
	}
	q, err := e.surfacePoint(req.X, req.Y)
	if err != nil {
		return err
	}
	// Clamp k to this shard's live object count: a shard owning fewer than
	// k objects contributes them all, and the coordinator merges per-shard
	// top-k lists into the global top-k.
	k := req.K
	if n := len(e.db.Objects()); k > n {
		k = n
	}
	if k == 0 {
		return writeShardResult(w, api.ShardResult{Epoch: e.db.CurrentEpoch(), Neighbors: []api.Neighbor{}}, nil)
	}
	var out api.ShardResult
	err = e.session(r.Context(), req.Timeout, func(ctx context.Context, sess *core.Session) error {
		res, err := sess.EACtx(ctx, q, k)
		out = shardResult(toResponse(res), res.Epoch)
		return err
	})
	return writeShardResult(w, out, err)
}

// --- POST /v1/shard/range ---

func (e *engine) handleShardRange(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardRangeRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkRadius(req.Radius); err != nil {
		return err
	}
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return err
	}
	res, epoch, err := e.rank(r.Context(), req.X, req.Y, req.Timeout, func(ctx context.Context, sess *core.Session, q mesh.SurfacePoint) (core.Result, error) {
		return sess.SurfaceRangeCtx(ctx, q, req.Radius, sched, opt)
	})
	return writeShardResult(w, shardResult(res, epoch), err)
}

// --- POST /v1/shard/objects ---

// handleShardObjects applies one coordinator-replayed logical update at the
// coordinator-assigned epoch (see objstore.ApplyAt). Empty batches are
// legal — a shard owning none of the touched objects still publishes, so
// every shard's epoch advances in lockstep — and replays are idempotent.
func (e *engine) handleShardObjects(w http.ResponseWriter, r *http.Request) error {
	var req api.ShardObjectsRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if req.Epoch == 0 {
		return badRequest("epoch must be positive")
	}
	if len(req.Objects) > maxUpdateBatch || len(req.DeleteIDs) > maxUpdateBatch {
		return badRequest("batch exceeds the limit of %d", maxUpdateBatch)
	}
	store, err := e.store()
	if err != nil {
		return err
	}
	batch, err := e.upsertBatch(req.Objects)
	if err != nil {
		return err
	}
	epoch, applied := store.ApplyAt(batch, req.DeleteIDs, req.Epoch)
	setEpoch(w, epoch)
	return writeBody(w, api.ShardObjectsResponse{Epoch: epoch, Applied: applied})
}
