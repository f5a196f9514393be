package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/server"
	"surfknn/internal/server/client"
	"surfknn/internal/shard"
	"surfknn/internal/workload"
)

// The shared inputs: the bench_test.go fixture terrain (BH preset, 33×33
// samples at 50 m, terrain seed 2006) with 80 objects, so ROADMAP's profile
// numbers and the golden page counts stay comparable. The run seed places
// the objects and draws the query points and the update and move mixes.
const (
	terrainSize    = 32
	terrainSpacing = 50.0
	terrainSeed    = 2006
	numObjects     = 80
	queryMargin    = 100.0
	queryPool      = 8192 // shared query points drawn per seed
	queryGrid      = 16   // cells per side the shared order cycles through

	// fleetPoolPages is each shard's buffer pool: about a quarter of the
	// 396-page paged store, so most page reads miss.
	fleetPoolPages = 100
	fleetNX        = 2
	fleetNY        = 2

	// setupRepeats is how many times a run sets its system up; setup_s is
	// the median.
	setupRepeats = 5
)

// knnKs is the k schedule k-NN requests cycle through.
var knnKs = [...]int{1, 5, 10}

// Independent random streams drawn from the run seed.
const (
	streamObjects = iota + 1
	streamQueries
	streamWarmup
	streamMix
	streamUpdates
	streamMoves
)

// subSeed derives the seed of one input stream from the run seed
// (splitmix64), so changing the seed changes every stream.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// setupTimes splits one set-up into its stages.
type setupTimes struct {
	dem, mesh, build, cut, load time.Duration
	snapshotBytes               int64
	total                       time.Duration // start to first healthy response
}

// buildTerrain runs the single-node set-up stages: DEM → mesh →
// BuildTerrainDB → objects.
func buildTerrain(seed int64, cfg core.Config, st *setupTimes) (*core.TerrainDB, []workload.Object, error) {
	t := time.Now()
	g := dem.Synthesize(dem.BH, terrainSize, terrainSpacing, terrainSeed)
	st.dem = time.Since(t)
	t = time.Now()
	m := mesh.FromGrid(g)
	st.mesh = time.Since(t)
	t = time.Now()
	db, err := core.BuildTerrainDB(m, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building terrain database: %w", err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, numObjects, subSeed(seed, streamObjects))
	if err != nil {
		return nil, nil, fmt.Errorf("placing objects: %w", err)
	}
	db.SetObjects(objs)
	st.build = time.Since(t)
	return db, objs, nil
}

// sharedQueries is the query set every workload and every rung answers:
// the first n points of a fixed pool of workload.RandomQueries points,
// ordered round-robin over a grid of terrain cells. Every prefix then
// covers the terrain evenly, so a short run samples the same mix of cheap
// and costly regions as a long one and its tail latencies depend less on
// which points the seed happened to draw first.
func sharedQueries(db *core.TerrainDB, seed int64, n int) ([]mesh.SurfacePoint, error) {
	pts, err := workload.RandomQueries(db.Mesh, db.Loc, max(n, queryPool), queryMargin, subSeed(seed, streamQueries))
	if err != nil {
		return nil, err
	}
	ext := db.Mesh.Extent()
	cell := func(v, lo, width float64) int {
		return min(max(int((v-lo)/width*queryGrid), 0), queryGrid-1)
	}
	cells := make([][]mesh.SurfacePoint, queryGrid*queryGrid)
	for _, p := range pts {
		c := cell(p.Pos.Y, ext.MinY, ext.Height())*queryGrid + cell(p.Pos.X, ext.MinX, ext.Width())
		cells[c] = append(cells[c], p)
	}
	out := make([]mesh.SurfacePoint, 0, n)
	for round := 0; len(out) < n; round++ {
		for _, c := range cells {
			if round < len(c) && len(out) < n {
				out = append(out, c[round])
			}
		}
	}
	return out, nil
}

// liveHTTP is one handler served on a 127.0.0.1 listener.
type liveHTTP struct {
	hs   *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*liveHTTP, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	l := &liveHTTP{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the listener down and waits for Serve to return.
func (l *liveHTTP) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	//lint:ignore dropped-error a drain past the deadline leaves nothing to report: the run is over
	_ = l.hs.Shutdown(ctx)
	<-l.done
}

// newClient builds a load client with its own connection pool and no
// retries, so a refusal counts as a failure instead of being retried out
// of sight. Call the returned close func when done.
func newClient(url string) (*client.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	c := client.New(url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr}))
	return c, tr.CloseIdleConnections
}

// healthy waits for the first healthy response from url.
func healthy(ctx context.Context, url string) error {
	c, done := newClient(url)
	defer done()
	hz, err := c.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	if hz.Status != "ok" {
		return fmt.Errorf("health check: status %q", hz.Status)
	}
	return nil
}

// system is one running deployment under test.
type system struct {
	url   string
	times setupTimes
	objs  []workload.Object // the initial object set

	db     *core.TerrainDB   // single node: the served database
	srv    *server.Server    // single node
	shards []*core.TerrainDB // fleet: one database per shard
	srvs   []*server.Server  // fleet: the shard servers
	coord  *shard.Coordinator

	stops []func()
}

func (s *system) stop() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// servingDBs are the databases whose buffer pools serve the system's reads.
func (s *system) servingDBs() []*core.TerrainDB {
	if s.db != nil {
		return []*core.TerrainDB{s.db}
	}
	return s.shards
}

func (s *system) servers() []*server.Server {
	if s.srv != nil {
		return []*server.Server{s.srv}
	}
	return s.srvs
}

// startNode sets up one server over a freshly built database.
func startNode(ctx context.Context, seed int64, tr *tracer) (*system, error) {
	start := time.Now()
	sys := &system{}
	db, objs, err := buildTerrain(seed, core.Config{}, &sys.times)
	if err != nil {
		return nil, err
	}
	sys.db, sys.objs = db, objs
	sys.srv = server.New(db, server.Config{})
	l, err := serve(tr.wrap("server.serve", "client", false, sys.srv.Handler()))
	if err != nil {
		return nil, err
	}
	sys.stops = append(sys.stops, l.stop)
	sys.url = l.url
	if err := healthy(ctx, l.url); err != nil {
		sys.stop()
		return nil, err
	}
	sys.times.total = time.Since(start)
	return sys, nil
}

// startFleet sets up a 2×2 fleet: build the database, cut it into shard
// snapshots, load each with a cold quarter-size buffer pool behind its own
// server, and verify a coordinator over them. Shard result caches are off.
func startFleet(ctx context.Context, seed int64, workDir string, tr *tracer) (sys *system, err error) {
	start := time.Now()
	sys = &system{}
	defer func() {
		if err != nil {
			sys.stop()
		}
	}()
	db, objs, err := buildTerrain(seed, core.Config{}, &sys.times)
	if err != nil {
		return nil, err
	}
	sys.objs = objs
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("snapshot directory: %w", err)
	}
	defer os.RemoveAll(dir)

	t := time.Now()
	man, err := shard.Cut(db, fleetNX, fleetNY, dir, "bench")
	if err != nil {
		return nil, fmt.Errorf("cutting fleet: %w", err)
	}
	sys.times.cut = time.Since(t)

	t = time.Now()
	for i := range man.Shards {
		path := filepath.Join(dir, man.Shards[i].File)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("shard snapshot: %w", err)
		}
		sys.times.snapshotBytes += fi.Size()
		sdb, err := core.LoadFile(path, core.Config{PoolPages: fleetPoolPages})
		if err != nil {
			return nil, fmt.Errorf("loading shard %s: %w", man.Shards[i].ID, err)
		}
		srv := server.New(sdb, server.Config{ShardID: man.Shards[i].ID, CacheEntries: -1})
		l, err := serve(tr.wrap("shard.rpc.", "coord.serve", true, srv.Handler()))
		if err != nil {
			return nil, err
		}
		sys.stops = append(sys.stops, l.stop)
		sys.shards = append(sys.shards, sdb)
		sys.srvs = append(sys.srvs, srv)
		man.Shards[i].Addr = l.url
	}
	sys.times.load = time.Since(t)

	shardHTTP := &http.Transport{}
	sys.stops = append(sys.stops, shardHTTP.CloseIdleConnections)
	sys.coord, err = shard.New(shard.Config{Manifest: man, HTTPClient: &http.Client{Transport: shardHTTP}})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := sys.coord.Verify(ctx); err != nil {
		return nil, fmt.Errorf("verifying fleet: %w", err)
	}
	l, err := serve(tr.wrap("coord.serve", "client", false, sys.coord.Handler()))
	if err != nil {
		return nil, err
	}
	sys.stops = append(sys.stops, l.stop)
	sys.url = l.url
	if err := healthy(ctx, l.url); err != nil {
		return nil, err
	}
	sys.times.total = time.Since(start)
	return sys, nil
}

var errNoOps = errors.New("no operation completed")
