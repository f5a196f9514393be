package server

// The local engine's object updates: POST /v1/objects (batch upsert) and
// DELETE /v1/objects (batch delete). Updates go through the database's
// versioned object store (internal/objstore), so each accepted batch
// publishes one new epoch atomically; queries in flight keep reading the
// epoch they pinned and are never torn by an update.
//
// Updates bypass admission control deliberately: the admission semaphore
// exists to bound CPU-heavy query execution, while an update is a short
// critical section in the store. Shedding writers behind a queue of slow
// queries would invert the service's priorities — updates are what keep
// query answers fresh.

import (
	"context"
	"net/http"

	"surfknn/internal/geom"
	"surfknn/internal/objstore"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

func (e *engine) Upsert(_ context.Context, req api.UpsertRequest) (api.UpdateResponse, error) {
	store, err := e.store()
	if err != nil {
		return api.UpdateResponse{}, err
	}
	batch, err := e.upsertBatch(req.Objects)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	return api.UpdateResponse{Epoch: store.Upsert(batch), Count: len(batch)}, nil
}

func (e *engine) Delete(_ context.Context, req api.DeleteRequest) (api.DeleteResponse, error) {
	store, err := e.store()
	if err != nil {
		return api.DeleteResponse{}, err
	}
	distinct := make(map[int64]struct{}, len(req.IDs))
	for _, id := range req.IDs {
		distinct[id] = struct{}{}
	}
	epoch, deleted := store.Delete(req.IDs)
	return api.DeleteResponse{
		Epoch:   epoch,
		Deleted: deleted,
		Missing: len(distinct) - deleted,
	}, nil
}

// store returns the database's object store, or the 500 when none is
// installed.
func (e *engine) store() (*objstore.Store, error) {
	store := e.db.ObjectStore()
	if store == nil {
		return nil, api.Errorf(http.StatusInternalServerError, api.CodeInternal,
			"database has no object store installed")
	}
	return store, nil
}

// upsertBatch validates and lifts a wire upsert batch onto the terrain.
// Unlike a query point, an off-terrain object position is a 400, not a
// 404: the request is asking to create state that cannot exist, not
// addressing state that does not.
func (e *engine) upsertBatch(objs []api.UpsertObject) ([]workload.Object, error) {
	batch := make([]workload.Object, len(objs))
	for i, o := range objs {
		if o.ID == nil {
			return nil, badRequest("objects[%d]: missing id", i)
		}
		p, err := e.db.SurfacePointAt(geom.Vec2{X: o.X, Y: o.Y})
		if err != nil {
			return nil, badRequest("objects[%d]: position (%g, %g) is not on the terrain: %v", i, o.X, o.Y, err)
		}
		batch[i] = workload.Object{ID: *o.ID, Point: p}
	}
	return batch, nil
}
