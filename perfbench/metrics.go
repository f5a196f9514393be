package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// declarations (TestDeclaredMetricsMatch keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median a change may worsen it by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	// Timings share the machine's run-to-run speed noise (about ±10% over
	// a 20 s window on the 2-vCPU sandbox), hence the widest bound.
	{"knn_p50_ms", "ms", "lower", 0.25},
	{"knn_p95_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	// Pages are machine-independent but vary with the seed's query points.
	{"knn_pages", "pages", "lower", 0.2},
	{"heap_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced run. A metric
// whose layer a workload does not exercise reads 0 there (manifest.json
// names the workload each one is meant for).
var perLayer = []metricDef{
	{"client.roundtrip_self_p50_ms", "ms", "lower", 0},
	{"server.handler_self_p50_ms", "ms", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.timed_out", "count", "lower", 0},
	{"sklang.compile_p50_us", "us", "lower", 0},
	{"shard.rpcs_per_knn", "count", "lower", 0},
	{"shard.pruned_ratio", "ratio", "higher", 0},
	{"shard.rpc_knn2d_p50_ms", "ms", "lower", 0},
	{"shard.rpc_range2d_p50_ms", "ms", "lower", 0},
	{"shard.rpc_rank_p50_ms", "ms", "lower", 0},
	{"shard.coord_self_p50_ms", "ms", "lower", 0},
	{"shard.upsert_p50_ms", "ms", "lower", 0},
	{"continuous.safe_hit_ratio", "ratio", "higher", 0},
	{"continuous.invalidations_per_update", "count", "lower", 0},
	{"continuous.revalidation_ratio", "ratio", "higher", 0},
	{"continuous.stripe_fill", "count", "higher", 0},
	{"objstore.apply_p50_us", "us", "lower", 0},
	{"objstore.knn2d_p50_us", "us", "lower", 0},
	{"objstore.knn2d_quiesced_p50_us", "us", "lower", 0},
	{"objstore.knn2d_allocs", "count", "lower", 0},
	{"objstore.live_epochs_max", "count", "lower", 0},
	{"core.mr3_p50_ms", "ms", "lower", 0},
	{"core.mr3_p95_ms", "ms", "lower", 0},
	{"core.cpu_p50_ms", "ms", "lower", 0},
	{"core.phase_knn2d_ms", "ms", "lower", 0},
	{"core.phase_rank_c1_ms", "ms", "lower", 0},
	{"core.phase_range2d_ms", "ms", "lower", 0},
	{"core.phase_rank_c2_ms", "ms", "lower", 0},
	{"core.pages_per_query", "pages", "lower", 0},
	{"core.upper_bounds", "count", "lower", 0},
	{"core.lower_bounds", "count", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.relaxations", "count", "lower", 0},
	{"core.pool_accesses", "count", "lower", 0},
	{"core.rtree_visits", "count", "lower", 0},
	{"core.allocs_per_query", "count", "lower", 0},
	{"sdn.lower_bound_p50_us", "us", "lower", 0},
	{"multires.upper_bound_p50_us", "us", "lower", 0},
	{"pathnet.distance_p50_us", "us", "lower", 0},
	{"pathnet.relaxations_per_call", "count", "lower", 0},
	{"storage.pool_miss_ratio", "ratio", "lower", 0},
	{"storage.evictions_per_knn", "count", "lower", 0},
	{"setup.dem_s", "s", "lower", 0},
	{"setup.mesh_s", "s", "lower", 0},
	{"setup.build_db_s", "s", "lower", 0},
	{"setup.cut_s", "s", "lower", 0},
	{"setup.load_s", "s", "lower", 0},
	{"setup.snapshot_mb", "MB", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles_per_kop", "count", "lower", 0},
	{"ops.update_p50_ms", "ms", "lower", 0},
	{"ops.update_p95_ms", "ms", "lower", 0},
	{"ops.move_p50_ms", "ms", "lower", 0},
	{"ops.move_p95_ms", "ms", "lower", 0},
	{"harness.error_rate", "ratio", "lower", 0},
	{"harness.lateness_p95_ms", "ms", "lower", 0},
	{"harness.trace_overhead", "ratio", "lower", 0},
	{"harness.ladder_residual", "ratio", "lower", 0},
}

// outcome is what one workload run produced: the op tallies, the oracle's
// findings and the metric values by name.
type outcome struct {
	attempted  int
	failed     int
	mismatches []string
	values     map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// set records a metric value, mapping the undefined results of empty
// inputs (NaN, ±Inf) to 0 so the line always encodes.
func (o *outcome) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.values[name] = v
}

// mismatch records an oracle failure; the op it belongs to counts as failed.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	} else if len(o.mismatches) == 20 {
		o.mismatches = append(o.mismatches, "further mismatches omitted")
	}
}

func (o *outcome) correct() bool { return len(o.mismatches) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line assembles the printed result: the end-to-end metrics, or with trace
// the per-layer ones. Every declared metric appears.
func (o *outcome) line(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.name] = metricValue{Value: o.values[d.name], Unit: d.unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1 // the contract wants at least one; a run that sent nothing has failed it
		o.failed = max(o.failed, 1)
	}
	return resultLine{Correct: o.correct(), Attempted: attempted, Failed: o.failed, Metrics: ms}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
