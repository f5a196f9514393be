package obs

import (
	"expvar"
	"fmt"
	"sync"
)

// CoordStats is the metric group of the scatter-gather coordinator
// (internal/shard): how many answers it assembled, how its fan-out behaved
// (shard calls issued, shards pruned by the search-region bound, shard
// failures after retries), and how often it had to refuse a degraded
// answer. Request lifecycle — counts, bad requests, latency — is the
// front end's, in ServerStats; this group keeps the fleet-level view only
// the coordinator has.
//
// All fields are updated atomically through their methods; the sklint
// obs-atomic rule forbids direct writes. The zero value is ready for use.
type CoordStats struct {
	Queries Counter // knn/range/ea/distance answers assembled
	Updates Counter // object batches applied fleet-wide

	// Fan-out behaviour.
	ShardCalls   Counter // shard RPCs issued (retries counted by the client)
	ShardErrors  Counter // shard RPCs that failed after retries (a shard's 4xx verdict is an answer, not a failure)
	PrunedShards Counter // shards skipped because the search region missed their tile
	Degraded     Counter // answers refused because a required shard was down (HTTP 503)

	publishOnce sync.Once
}

// NewCoordStats returns an empty metric group ready for concurrent use.
func NewCoordStats() *CoordStats { return &CoordStats{} }

// Snapshot renders the group as a nested map, the value Publish exposes
// through expvar.
func (s *CoordStats) Snapshot() map[string]any {
	return map[string]any{
		"answers": map[string]any{
			"queries":  s.Queries.Value(),
			"updates":  s.Updates.Value(),
			"degraded": s.Degraded.Value(),
		},
		"fanout": map[string]any{
			"shard_calls":   s.ShardCalls.Value(),
			"shard_errors":  s.ShardErrors.Value(),
			"pruned_shards": s.PrunedShards.Value(),
		},
	}
}

// Publish exposes the group's Snapshot at /debug/vars under the given name
// (skcoord uses "surfknn_coord"). Same contract as Registry.Publish:
// republishing the same group is a no-op, a name collision is an error.
func (s *CoordStats) Publish(name string) error {
	var err error
	s.publishOnce.Do(func() {
		if expvar.Get(name) != nil {
			err = fmt.Errorf("obs: expvar name %q is already taken", name)
			return
		}
		expvar.Publish(name, expvar.Func(func() any { return s.Snapshot() }))
	})
	return err
}
