package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/sdn"
	"surfknn/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 40, 1212)
	q := queryPoints(t, db, 1, 64)[0]
	want, err := db.MR3(q, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Structural equality.
	if db2.Mesh.NumVerts() != db.Mesh.NumVerts() || db2.Mesh.NumFaces() != db.Mesh.NumFaces() {
		t.Fatalf("mesh mismatch: %v vs %v", db2.Mesh, db.Mesh)
	}
	if db2.Tree.NumLeaves != db.Tree.NumLeaves || len(db2.Tree.Edges) != len(db.Tree.Edges) {
		t.Fatal("tree mismatch")
	}
	if db2.MSDN.NumLines() != db.MSDN.NumLines() || db2.MSDN.NumPoints() != db.MSDN.NumPoints() {
		t.Fatal("MSDN mismatch")
	}
	if len(db2.Objects()) != len(db.Objects()) {
		t.Fatal("objects mismatch")
	}

	// Identical query results (the loaded database is behaviourally equal).
	q2, err := db2.SurfacePointAt(q.XY())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.MR3(q2, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("neighbour count %d vs %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i].Object.ID != want.Neighbors[i].Object.ID {
			t.Errorf("neighbour %d: %d vs %d", i,
				got.Neighbors[i].Object.ID, want.Neighbors[i].Object.ID)
		}
		if got.Neighbors[i].UB != want.Neighbors[i].UB {
			t.Errorf("neighbour %d UB: %v vs %v", i, got.Neighbors[i].UB, want.Neighbors[i].UB)
		}
	}
	if got.Metrics().Pages != want.Metrics().Pages {
		t.Errorf("page count changed after reload: %d vs %d", got.Metrics().Pages, want.Metrics().Pages)
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 10, 1313)
	path := filepath.Join(t.TempDir(), "terrain.skdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Mesh.NumVerts() != db.Mesh.NumVerts() {
		t.Error("mesh mismatch after file round trip")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.skdb"), Config{}); err == nil {
		t.Error("missing file should error")
	}
}

// snapshotV3Fixture is a genuine v3 byte stream (no flat-buffer tail),
// written by the v3 writer before it was retired, of
// buildDB(t, dem.BH, 8, 20, 1212). fixtureDB rebuilds that database
// deterministically.
const snapshotV3Fixture = "testdata/snapshot_v3.skdb"

func fixtureDB(t *testing.T) *TerrainDB { return buildDB(t, dem.BH, 8, 20, 1212) }

func loadV3Fixture(t *testing.T) *TerrainDB {
	t.Helper()
	raw, err := os.ReadFile(snapshotV3Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw[:8]); got != "SKNNDB03" {
		t.Fatalf("v3 fixture magic = %q", got)
	}
	db, err := Load(bytes.NewReader(raw), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotV3BackwardCompat pins the v3 reader: the committed v3
// snapshot still loads, rebuilding the pathnet and the Dxy pack, and
// answers queries exactly as the database that saved it.
func TestSnapshotV3BackwardCompat(t *testing.T) {
	db := fixtureDB(t)
	q := queryPoints(t, db, 1, 64)[0]
	want, err := db.MR3(q, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2 := loadV3Fixture(t)
	q2, err := db2.SurfacePointAt(q.XY())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.MR3(q2, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "v3", got, want)
}

// TestSnapshotV4Equivalence is the round-trip equivalence guarantee behind
// the flat-buffer tail: restoring from the v4 flat buffers (a straight read)
// and restoring from v3 (Steiner rebuild + STR re-pack) yield databases
// that answer MR3, EA and range queries bit-identically, page counts
// included.
func TestSnapshotV4Equivalence(t *testing.T) {
	db := fixtureDB(t)
	qs := queryPoints(t, db, 3, 77)
	radius := db.Mesh.Extent().Width() / 3

	var b4 bytes.Buffer
	if err := db.Save(&b4); err != nil {
		t.Fatal(err)
	}
	if got := string(b4.Bytes()[:8]); got != "SKNNDB04" {
		t.Fatalf("v4 magic = %q", got)
	}
	db3 := loadV3Fixture(t)
	db4, err := Load(&b4, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for qi, q := range qs {
		q3, err := db3.SurfacePointAt(q.XY())
		if err != nil {
			t.Fatal(err)
		}
		q4, err := db4.SurfacePointAt(q.XY())
		if err != nil {
			t.Fatal(err)
		}
		want, err := db3.MR3(q3, 5, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db4.MR3(q4, 5, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d MR3", qi), got, want)

		want, err = db3.EA(q3, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err = db4.EA(q4, 5)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d EA", qi), got, want)

		want, err = db3.SurfaceRange(q3, radius, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err = db4.SurfaceRange(q4, radius, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d range", qi), got, want)
	}
}

// TestLoadRejectsForgedIndexLayout forges v4 snapshots whose Dxy child or
// item ranges break the packed layout. The writer computes a valid CRC over
// the forged bytes, so only the loader's structural check stands between
// them and a search that loops or returns an item twice.
func TestLoadRejectsForgedIndexLayout(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 2, 31)
	objs := db.Objects()
	items := make([]index.Item, len(objs))
	for i, o := range objs {
		items[i] = index.Item{P: o.Point.XY(), ID: o.ID}
	}
	all := db.Mesh.Extent()
	forge := func(leaf []bool, start, count []int32) index.Flat {
		mbrs := make([]geom.MBR, len(leaf))
		for i := range mbrs {
			mbrs[i] = all
		}
		return index.Flat{Leaf: leaf, MBR: mbrs, Start: start, Count: count, Items: items}
	}
	cases := []struct {
		name string
		flat index.Flat
	}{
		// The root lists itself and the leaf as children: a cycle.
		{"self-child", forge([]bool{false, true}, []int32{0, 0}, []int32{2, 2})},
		// Two internal nodes share the leaf.
		{"shared-child", forge([]bool{false, false, true}, []int32{1, 2, 0}, []int32{2, 1, 2})},
		// An empty root lets node 1's range start at node 1 itself: the
		// ranges tile, but node 1 is its own child.
		{"tiled-self-child", forge([]bool{false, false, true}, []int32{1, 1, 0}, []int32{0, 2, 2})},
		// Two leaves list the same items.
		{"shared-items", forge([]bool{false, true, true}, []int32{1, 0, 0}, []int32{2, 2, 2})},
		// The leaves skip an item.
		{"item-gap", forge([]bool{false, true, true}, []int32{1, 0, 2}, []int32{2, 1, 0})},
		// An internal node's child range lies outside the node slab.
		{"child-overrun", forge([]bool{false, true}, []int32{1, 0}, []int32{2, 2})},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := db.save(&buf, objs, 0, c.flat); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf, Config{})
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", c.name, err)
		}
	}
	// The packed layout itself loads.
	var buf bytes.Buffer
	if err := db.save(&buf, objs, 0, index.Bulk(items).Flatten()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Config{}); err != nil {
		t.Fatalf("packed layout rejected: %v", err)
	}
}

// TestLoadRejectsForgedCrossLines forges snapshots whose MSDN crossing
// lines break one builder guarantee each. The writer computes a valid CRC
// over the forged bytes, so only the loader's structural check stands
// between them and segment boxes that no longer cover their line.
func TestLoadRejectsForgedCrossLines(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 2, 37)
	objs, epoch, dxy := db.snapshotObjects()
	orig := db.MSDN
	if len(orig.XLines) < 2 || len(orig.XLines[0].Pts) < 3 {
		t.Fatalf("fixture too small: %d x-lines", len(orig.XLines))
	}
	// forge saves a copy of the MSDN whose x-lines fn edited; only the
	// first line's contents are copied, so fn may change those and the
	// order of the slice.
	forge := func(fn func(lines []*sdn.CrossLine)) []byte {
		ms := *orig
		ms.XLines = append([]*sdn.CrossLine(nil), orig.XLines...)
		cl := *ms.XLines[0]
		cl.Pts = append([]geom.Vec3(nil), cl.Pts...)
		cl.Rank = append([]int(nil), cl.Rank...)
		ms.XLines[0] = &cl
		fn(ms.XLines)
		db.MSDN = &ms
		defer func() { db.MSDN = orig }()
		var buf bytes.Buffer
		if err := db.save(&buf, objs, epoch, dxy); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		fn   func(lines []*sdn.CrossLine)
	}{
		{"wrong-axis", func(l []*sdn.CrossLine) { l[0].Axis = sdn.YAxis }},
		{"unsorted-coord", func(l []*sdn.CrossLine) { l[0], l[1] = l[1], l[0] }},
		{"duplicate-coord", func(l []*sdn.CrossLine) { l[0].Coord = l[1].Coord }},
		{"nan-coord", func(l []*sdn.CrossLine) { l[0].Coord = math.NaN() }},
		{"inf-coord", func(l []*sdn.CrossLine) { l[0].Coord = math.Inf(-1) }},
		{"one-point", func(l []*sdn.CrossLine) { l[0].Pts, l[0].Rank = l[0].Pts[:1], []int{0} }},
		{"nan-point", func(l []*sdn.CrossLine) { l[0].Pts[1].Z = math.NaN() }},
		{"inf-point", func(l []*sdn.CrossLine) { l[0].Pts[1].Y = math.Inf(1) }},
		{"rank-out-of-range", func(l []*sdn.CrossLine) { l[0].Rank[1] = len(l[0].Pts) }},
		{"rank-duplicate", func(l []*sdn.CrossLine) { l[0].Rank[1] = l[0].Rank[2] }},
		{"first-rank-not-0", func(l []*sdn.CrossLine) {
			r := l[0].Rank
			r[0], r[1] = r[1], r[0]
		}},
		{"last-rank-not-1", func(l []*sdn.CrossLine) {
			r, n := l[0].Rank, len(l[0].Rank)-1
			r[n], r[1] = r[1], r[n]
		}},
	}
	for _, c := range cases {
		_, err := Load(bytes.NewReader(forge(c.fn)), Config{})
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", c.name, err)
		}
	}
	// The unedited copy loads.
	if _, err := Load(bytes.NewReader(forge(func([]*sdn.CrossLine) {})), Config{}); err != nil {
		t.Fatalf("unedited lines rejected: %v", err)
	}
}

// compareResults asserts bit-identical neighbour sets (IDs, LB/UB bit
// patterns) and identical page counts between two query results.
func compareResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: neighbour count %d vs %d", label, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		g, w := got.Neighbors[i], want.Neighbors[i]
		if g.Object.ID != w.Object.ID {
			t.Errorf("%s: neighbour %d: %d vs %d", label, i, g.Object.ID, w.Object.ID)
		}
		if math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) {
			t.Errorf("%s: neighbour %d bounds (%v,%v) vs (%v,%v)", label, i, g.LB, g.UB, w.LB, w.UB)
		}
	}
	if got.Metrics().Pages != want.Metrics().Pages {
		t.Errorf("%s: page count %d vs %d", label, got.Metrics().Pages, want.Metrics().Pages)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a database")), Config{}); err == nil {
		t.Error("garbage should fail")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(dbMagic[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := Load(&buf, Config{}); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 40, 99)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit inside float payload (vertex coordinates) and inside the
	// footer itself: structural validation cannot see either, so this pins
	// the CRC-32C check.
	for _, off := range []int{16, 100, 1000, len(raw) - 5, len(raw) - 2} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x10
		_, err := Load(bytes.NewReader(bad), Config{})
		if err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
	// The pristine bytes still load.
	if _, err := Load(bytes.NewReader(raw), Config{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

func TestLoadWithoutObjects(t *testing.T) {
	// A database saved before SetObjects loads fine and reports no objects.
	g := dem.Synthesize(dem.EP, 8, 10, 5)
	m := meshFromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Objects()) != 0 {
		t.Errorf("expected no objects, got %d", len(db2.Objects()))
	}
	if db2.ObjectStore() != nil {
		t.Error("object store should be nil without objects")
	}
}

func TestSnapshotEpochRoundTrip(t *testing.T) {
	// A snapshot taken after updates resumes at the same epoch with the
	// surviving object set.
	g := dem.Synthesize(dem.EP, 8, 10, 6)
	m := meshFromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	store := db.ObjectStore()
	store.Upsert([]workload.Object{objs[0]}) // epoch 1 (moves nothing, same point)
	store.Delete([]int64{objs[1].ID})        // epoch 2
	if got := db.CurrentEpoch(); got != 2 {
		t.Fatalf("pre-save epoch = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.CurrentEpoch(); got != 2 {
		t.Errorf("restored epoch = %d, want 2", got)
	}
	if got, want := len(db2.Objects()), len(db.Objects()); got != want {
		t.Fatalf("restored %d objects, want %d", got, want)
	}
	if _, ok := db2.Object(objs[1].ID); ok {
		t.Error("deleted object resurrected by snapshot round-trip")
	}
	// The restored store continues the sequence, not restarts it.
	if e := db2.ObjectStore().Upsert([]workload.Object{objs[2]}); e != 3 {
		t.Errorf("post-restore update produced epoch %d, want 3", e)
	}
}
