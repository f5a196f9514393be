package server

import (
	"context"
	"net/http"
	"strconv"

	"surfknn/internal/continuous"
	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
)

// The continuous-query routes, served by the local engine only. A
// subscription is server-side state (the cached top-k, its safe region, its
// epoch stamp — see internal/continuous), so unlike the stateless query
// routes these are keyed by a subscription id in the path. Every move
// answer carries an X-Safe-Region header: "hit" when it was served from the
// safe region without engine work, "miss" when it re-evaluated.

// safeRegionHeader is the response header reporting the move disposition.
const safeRegionHeader = "X-Safe-Region"

func setSafeRegion(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set(safeRegionHeader, "hit")
	} else {
		w.Header().Set(safeRegionHeader, "miss")
	}
}

// monitor returns the continuous monitor, or the 500 when the server was
// built without one (a database lacking an object store).
func (e *engine) monitor() (*continuous.Monitor, error) {
	if e.mon == nil {
		return nil, api.Errorf(http.StatusInternalServerError, api.CodeInternal, "continuous queries unavailable: no object store")
	}
	return e.mon, nil
}

func subscribeResponse(id uint64, res core.Result, sr core.SafeRegion) api.SubscribeResponse {
	return api.SubscribeResponse{
		ID:         id,
		Result:     toResponse(res),
		SafeRadius: api.Float(sr.Radius),
		AnchorX:    sr.Center.X,
		AnchorY:    sr.Center.Y,
		Epoch:      res.Epoch,
	}
}

// subscribe registers a continuous k-NN query under admission control —
// the path POST /v1/subscribe and the SKQL SUBSCRIBE form share.
func (e *engine) subscribe(ctx context.Context, x, y float64, k int, sched core.Schedule, opt core.Options, timeout api.Duration) (api.SubscribeResponse, error) {
	mon, err := e.monitor()
	if err != nil {
		return api.SubscribeResponse{}, err
	}
	q, err := e.surfacePoint(x, y)
	if err != nil {
		return api.SubscribeResponse{}, err
	}
	ctx, cancel := e.requestContext(ctx, timeout)
	defer cancel()
	if err := e.admit(ctx); err != nil {
		return api.SubscribeResponse{}, err
	}
	defer e.adm.release()
	id, res, sr, err := mon.Subscribe(ctx, q, k, sched, opt)
	if err != nil {
		return api.SubscribeResponse{}, err
	}
	return subscribeResponse(id, res, sr), nil
}

// subscriptionID parses the {id} path element.
func subscriptionID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, badRequest("invalid subscription id %q", r.PathValue("id"))
	}
	return id, nil
}

// --- POST /v1/subscribe ---

func (e *engine) handleSubscribe(w http.ResponseWriter, r *http.Request) error {
	var req api.SubscribeRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	if err := checkK(req.K); err != nil {
		return err
	}
	sched, opt, err := checkQuery(req.Sched, req.Options)
	if err != nil {
		return err
	}
	sub, err := e.subscribe(r.Context(), req.X, req.Y, req.K, sched, opt, req.Timeout)
	if err != nil {
		return err
	}
	setEpoch(w, sub.Epoch)
	setSafeRegion(w, false)
	return writeBody(w, sub)
}

// --- POST /v1/subscribe/{id}/move ---

func (e *engine) handleMove(w http.ResponseWriter, r *http.Request) error {
	mon, err := e.monitor()
	if err != nil {
		return err
	}
	id, err := subscriptionID(r)
	if err != nil {
		return err
	}
	var req api.MoveRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		return err
	}
	p := geom.Vec2{X: req.X, Y: req.Y}

	// The safe-region fast path: no admission slot, no session, no engine.
	// Serving a cached, epoch-current answer is cheaper than the admission
	// bookkeeping it would queue behind.
	if res, sr, hit := mon.TryMove(id, p); hit {
		setEpoch(w, res.Epoch)
		setSafeRegion(w, true)
		return writeBody(w, subscribeResponse(id, res, sr))
	}

	// Validate the target before spending an admission slot: a move off the
	// terrain is the addressed location not existing, a 404.
	if _, err := e.surfacePoint(req.X, req.Y); err != nil {
		return err
	}

	ctx, cancel := e.requestContext(r.Context(), req.Timeout)
	defer cancel()
	if err := e.admit(ctx); err != nil {
		return err
	}
	defer e.adm.release()

	res, sr, hit, err := mon.Move(ctx, id, p)
	if err == continuous.ErrUnknownSubscription {
		return api.Errorf(http.StatusNotFound, api.CodeNotFound, "no subscription %d", id)
	}
	if err != nil {
		return err
	}
	setEpoch(w, res.Epoch)
	setSafeRegion(w, hit)
	return writeBody(w, subscribeResponse(id, res, sr))
}

// --- DELETE /v1/subscribe/{id} ---

func (e *engine) handleUnsubscribe(w http.ResponseWriter, r *http.Request) error {
	mon, err := e.monitor()
	if err != nil {
		return err
	}
	id, err := subscriptionID(r)
	if err != nil {
		return err
	}
	if !mon.Unsubscribe(id) {
		return api.Errorf(http.StatusNotFound, api.CodeNotFound, "no subscription %d", id)
	}
	return writeBody(w, api.UnsubscribeResponse{Removed: true})
}
