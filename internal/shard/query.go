package shard

// The coordinator's SKQL backend: statements arrive compiled by the shared
// front end (internal/server) and are executed by the scatter-gather
// primitives, so a statement answers bit-identically whether it reaches a
// server or a coordinator. The EXPLAIN answer differs on purpose: a
// coordinator rewrites each engine cost phase into the distributed step
// that carries it out — "scatter:*" fan-outs and "rank:*" single-shard
// steps — annotated with the tiles the execution actually touched and the
// shard-reported costs.

import (
	"context"
	"net/http"
	"strconv"
	"sync"

	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// Trace step names — the keys the scatter paths record under and the plan
// rewriter reads back.
const (
	traceStep1   = "knn2d"   // k-NN step 1: scatter ShardKNN2D to every tile
	traceRankC1  = "rank-c1" // k-NN step 2: tightening rank on the query tile
	traceStep3   = "range2d" // k-NN step 3: scatter ShardRange2D within the bound
	traceRankC2  = "rank-c2" // k-NN step 4: settling rank on the query tile
	traceScatter = "scatter" // single-scatter algorithms (range, ea, distance)
)

// queryTrace records which tiles each distributed step touched and the
// costs the shards reported, for EXPLAIN. All methods are nil-safe (a nil
// trace records nothing) and safe under scatter concurrency.
type queryTrace struct {
	mu     sync.Mutex
	tiles  map[string][]string
	costs  map[string]api.Cost
	radius float64 // the k-th upper bound step 3 pruned with (0 until known)
}

func (t *queryTrace) touch(step string, tiles []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tiles == nil {
		t.tiles = make(map[string][]string)
	}
	t.tiles[step] = tiles
}

func (t *queryTrace) charge(step string, c api.Cost) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.costs == nil {
		t.costs = make(map[string]api.Cost)
	}
	sum := t.costs[step]
	sum.Pages += c.Pages
	sum.CPUUs += c.CPUUs
	sum.ElapsedUs += c.ElapsedUs
	t.costs[step] = sum
}

func (t *queryTrace) bound(r float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.radius = r
	t.mu.Unlock()
}

// Catalog snapshots what the planner needs to know about the fleet: the
// manifest's object counts and extent, plus the face count learned in
// Verify.
func (c *Coordinator) Catalog() sklang.Catalog {
	objects := 0
	for _, m := range c.cfg.Manifest.Shards {
		objects += m.Objects
	}
	return sklang.Catalog{
		Objects: objects,
		Faces:   int(c.faces.Load()),
		Area:    c.cfg.Manifest.Extent.MBR().Area(),
	}
}

// Query executes a compiled statement over the fleet.
func (c *Coordinator) Query(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.QueryResponse, uint64, error) {
	return c.execPlan(ctx, plan, timeout, nil)
}

// Explain executes a compiled statement and returns the distributed plan
// it ran (see coordPlanNode).
func (c *Coordinator) Explain(ctx context.Context, plan *sklang.Plan, timeout api.Duration) (api.PlanNode, uint64, error) {
	tr := &queryTrace{}
	_, epoch, err := c.execPlan(ctx, plan, timeout, tr)
	if err != nil {
		return api.PlanNode{}, 0, err
	}
	return coordPlanNode(plan, tr), epoch, nil
}

// execPlan scatters a compiled plan and returns the merged answer. The
// trace records tiles and shard costs for EXPLAIN.
func (c *Coordinator) execPlan(ctx context.Context, plan *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.QueryResponse, uint64, error) {
	resp := api.QueryResponse{Form: plan.Form, Algorithm: string(plan.Algo)}
	switch plan.Algo {
	case sklang.AlgoMR3:
		res, epoch, err := c.knn(ctx, api.KNNRequest{
			X: plan.X, Y: plan.Y, K: plan.K,
			Sched: plan.Sched, Options: plan.Options, Timeout: timeout,
		}, tr)
		if err != nil {
			return resp, 0, err
		}
		if plan.HasFilter {
			res.Neighbors = filterNeighbors(res.Neighbors, plan.Radius)
		}
		resp.Result = res
		return resp, epoch, nil
	case sklang.AlgoEA:
		res, epoch, err := c.ea(ctx, api.KNNRequest{
			X: plan.X, Y: plan.Y, K: plan.K, Timeout: timeout,
		}, tr)
		if err != nil {
			return resp, 0, err
		}
		resp.Result = res
		return resp, epoch, nil
	case sklang.AlgoRange:
		res, epoch, err := c.rangeQuery(ctx, api.RangeRequest{
			X: plan.X, Y: plan.Y, Radius: plan.Radius,
			Sched: plan.Sched, Options: plan.Options, Timeout: timeout,
		}, tr)
		if err != nil {
			return resp, 0, err
		}
		resp.Result = res
		return resp, epoch, nil
	case sklang.AlgoDistance:
		res, epoch, err := c.distance(ctx, api.DistanceRequest{
			X: plan.X, Y: plan.Y, X2: plan.X2, Y2: plan.Y2,
			Accuracy: plan.Accuracy, Sched: plan.Sched, Timeout: timeout,
		}, tr)
		if err != nil {
			return resp, 0, err
		}
		resp.Result = api.Result{Neighbors: []api.Neighbor{}}
		resp.Distance = &res
		return resp, epoch, nil
	case sklang.AlgoContinuous:
		return resp, 0, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
			"SUBSCRIBE needs per-session state; connect to a shard server for subscriptions")
	default:
		return resp, 0, api.Errorf(http.StatusBadRequest, api.CodeBadRequest,
			"statement form not executable on a coordinator")
	}
}

// filterNeighbors keeps the prefix-closed subsequence with UB ≤ radius —
// the same post-filter the single-node executor applies.
func filterNeighbors(ns []api.Neighbor, radius float64) []api.Neighbor {
	out := ns[:0]
	for _, n := range ns {
		if float64(n.UB) <= radius {
			out = append(out, n)
		}
	}
	if out == nil {
		out = []api.Neighbor{}
	}
	return out
}

// coordPlanNode rewrites a compiled plan into the distributed plan the
// coordinator actually ran: each engine cost phase becomes the scatter or
// single-shard rank step that carried it out, annotated with the tiles the
// trace recorded and the shard-reported costs. Page estimates carry over
// from the planner's matching phase leaf; a single-scatter algorithm's
// node inherits the whole root estimate.
func coordPlanNode(plan *sklang.Plan, tr *queryTrace) api.PlanNode {
	src := plan.Root.Wire()
	root := api.PlanNode{
		Op:       src.Op,
		Detail:   src.Detail,
		EstPages: src.EstPages,
	}
	phaseEst := make(map[string]int64)
	var filter *api.PlanNode
	for i := range src.Children {
		ch := src.Children[i]
		switch {
		case ch.Op == "filter":
			filter = &src.Children[i]
		default:
			phaseEst[ch.Op] = ch.EstPages
		}
	}
	step := func(op, phase, detail string, est int64) api.PlanNode {
		n := api.PlanNode{Op: op, Detail: detail, EstPages: est, Tiles: tr.tiles[phase]}
		if cost, ok := tr.costs[phase]; ok {
			n.Cost = &cost
		}
		return n
	}
	switch plan.Algo {
	case sklang.AlgoMR3:
		root.Children = []api.PlanNode{
			step("scatter:knn2d", traceStep1, "k nearest by planar distance, every tile", phaseEst["phase:knn2d"]),
			step("rank:rank-c1", traceRankC1, "tighten C1 on the query tile", phaseEst["phase:rank-c1"]),
			step("scatter:range2d", traceStep3, fmtRadius(tr), phaseEst["phase:range2d"]),
			step("rank:rank-c2", traceRankC2, "settle the k-set on the query tile", phaseEst["phase:rank-c2"]),
		}
	case sklang.AlgoEA, sklang.AlgoRange:
		root.Children = []api.PlanNode{
			step("scatter:"+string(plan.Algo), traceScatter, "full query on each tile, merge", src.EstPages),
		}
	case sklang.AlgoDistance:
		root.Children = []api.PlanNode{
			step("rank:distance", traceScatter, "terrain-only, any one shard", src.EstPages),
		}
	}
	if filter != nil {
		root.Children = append(root.Children, *filter)
	}
	// The root total is the sum of what the shards reported.
	var total api.Cost
	for _, ch := range root.Children {
		if ch.Cost != nil {
			total.Pages += ch.Cost.Pages
			total.CPUUs += ch.Cost.CPUUs
			total.ElapsedUs += ch.Cost.ElapsedUs
		}
	}
	if total != (api.Cost{}) {
		root.Cost = &total
	}
	return root
}

func fmtRadius(tr *queryTrace) string {
	if tr == nil || tr.radius == 0 {
		return "gather within the k-th upper bound"
	}
	return "gather within the k-th upper bound r=" + strconv.FormatFloat(tr.radius, 'g', -1, 64)
}
