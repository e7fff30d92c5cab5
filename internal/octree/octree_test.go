package octree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func randomPoints(n int, spread float64, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.NormFloat64()*spread, rng.NormFloat64()*spread, rng.NormFloat64()*spread)
	}
	return pts
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(nil, 8)
	if tr.NumNodes() != 1 || !tr.Nodes[0].Leaf || tr.NumPoints() != 0 {
		t.Fatalf("empty tree: %d nodes", tr.NumNodes())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSinglePoint(t *testing.T) {
	tr := Build([]geom.Vec3{geom.V(1, 2, 3)}, 8)
	if tr.NumNodes() != 1 || !tr.Nodes[0].Leaf {
		t.Fatalf("single point tree: %d nodes", tr.NumNodes())
	}
	if tr.Nodes[0].Center != geom.V(1, 2, 3) || tr.Nodes[0].Radius != 0 {
		t.Errorf("ball = %v r=%v", tr.Nodes[0].Center, tr.Nodes[0].Radius)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildValidateSizes(t *testing.T) {
	for _, n := range []int{2, 10, 100, 1000, 5000} {
		for _, leaf := range []int{1, 4, 8, 32} {
			pts := randomPoints(n, 10, int64(n*leaf))
			tr := Build(pts, leaf)
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d leaf=%d: %v", n, leaf, err)
			}
			if tr.NumPoints() != n {
				t.Fatalf("n=%d: NumPoints=%d", n, tr.NumPoints())
			}
			// Every leaf obeys the size bound (depth cap aside, which
			// random points don't hit).
			for _, l := range tr.Leaves() {
				if tr.Nodes[l].Count() > leaf {
					t.Fatalf("n=%d leaf=%d: leaf with %d items", n, leaf, tr.Nodes[l].Count())
				}
			}
		}
	}
}

func TestLeavesPartitionItems(t *testing.T) {
	pts := randomPoints(800, 5, 3)
	tr := Build(pts, 8)
	total := 0
	prevEnd := int32(0)
	for _, l := range tr.Leaves() {
		n := &tr.Nodes[l]
		total += n.Count()
		if n.Start < prevEnd {
			t.Fatal("leaves not ordered by item range")
		}
		prevEnd = n.End
	}
	if total != 800 {
		t.Fatalf("leaves cover %d of 800 items", total)
	}
}

func TestCoincidentPoints(t *testing.T) {
	pts := make([]geom.Vec3, 100)
	for i := range pts {
		pts[i] = geom.V(1, 1, 1)
	}
	tr := Build(pts, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.MaxTreeDepth() > maxDepth {
		t.Errorf("depth = %d", tr.MaxTreeDepth())
	}
}

func TestDeterministicBuild(t *testing.T) {
	pts := randomPoints(500, 7, 9)
	a := Build(pts, 8)
	b := Build(pts, 8)
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("non-deterministic node count")
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

// Linear-space invariant (§II): tree memory per point is bounded and does
// not depend on any approximation parameter.
func TestMemoryLinear(t *testing.T) {
	m1 := Build(randomPoints(1000, 10, 1), 8).MemoryBytes()
	m2 := Build(randomPoints(2000, 10, 2), 8).MemoryBytes()
	perPoint1 := float64(m1) / 1000
	perPoint2 := float64(m2) / 2000
	if perPoint2 > perPoint1*1.5 || perPoint1 > perPoint2*1.5 {
		t.Errorf("memory not linear: %v vs %v bytes/point", perPoint1, perPoint2)
	}
}

func TestWalkVisitsAllAndPrunes(t *testing.T) {
	pts := randomPoints(300, 5, 4)
	tr := Build(pts, 8)
	visited := 0
	tr.Walk(func(n int32) bool { visited++; return true })
	if visited != tr.NumNodes() {
		t.Errorf("visited %d of %d nodes", visited, tr.NumNodes())
	}
	// Pruning at the root visits exactly one node.
	visited = 0
	tr.Walk(func(n int32) bool { visited++; return false })
	if visited != 1 {
		t.Errorf("pruned walk visited %d", visited)
	}
}

func TestItemsOfRoot(t *testing.T) {
	pts := randomPoints(100, 5, 6)
	tr := Build(pts, 8)
	items := tr.ItemsOf(tr.Root())
	if len(items) != 100 {
		t.Fatalf("root items = %d", len(items))
	}
	seen := map[int32]bool{}
	for _, it := range items {
		if seen[it] {
			t.Fatal("duplicate item under root")
		}
		seen[it] = true
	}
}

func TestEnclosingBallsContainSubtreePoints(t *testing.T) {
	pts := randomPoints(2000, 20, 8)
	tr := Build(pts, 16)
	tr.Walk(func(n int32) bool {
		node := &tr.Nodes[n]
		for _, it := range tr.ItemsOf(n) {
			if node.Center.Dist(pts[it]) > node.Radius+1e-9 {
				t.Fatalf("node %d: point outside ball", n)
			}
		}
		return true
	})
}

func TestChildBallsNested(t *testing.T) {
	// Child radii should be no larger than ~parent radius + distance
	// between centers (sanity of the ball hierarchy used by the far test).
	pts := randomPoints(3000, 15, 10)
	tr := Build(pts, 8)
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		for _, c := range n.Children {
			if c == NoChild {
				continue
			}
			ch := &tr.Nodes[c]
			if ch.Radius > n.Radius+1e-9 {
				t.Fatalf("child %d radius %v exceeds parent %d radius %v", c, ch.Radius, i, n.Radius)
			}
		}
	}
}

func TestTransformedReuse(t *testing.T) {
	pts := randomPoints(500, 8, 12)
	tr := Build(pts, 8)
	rigid := geom.Translate(geom.V(5, -3, 2)).Compose(geom.Rotate(geom.V(1, 1, 0), 0.7))
	moved := make([]geom.Vec3, len(pts))
	for i, p := range pts {
		moved[i] = rigid.Apply(p)
	}
	tr2, err := tr.Transformed(rigid, moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(); err != nil {
		t.Fatalf("transformed tree invalid: %v", err)
	}
	// Radii unchanged, centers moved.
	for i := range tr.Nodes {
		if math.Abs(tr.Nodes[i].Radius-tr2.Nodes[i].Radius) > 1e-12 {
			t.Fatal("radius changed under rigid motion")
		}
		want := rigid.Apply(tr.Nodes[i].Center)
		if tr2.Nodes[i].Center.Dist(want) > 1e-9 {
			t.Fatal("center not transformed")
		}
	}
	// Wrong point count errors.
	if _, err := tr.Transformed(rigid, moved[:10]); err == nil {
		t.Error("Transformed accepted wrong point count")
	}
}

func TestLeafSizeDefault(t *testing.T) {
	tr := Build(randomPoints(100, 5, 14), 0)
	if tr.LeafSize != 8 {
		t.Errorf("default leaf size = %d", tr.LeafSize)
	}
}

func TestDepthReasonable(t *testing.T) {
	// 10k uniform points with leaf size 8 should need depth ≈ log8(10k/8)
	// ≈ 4–12, far from the cap.
	pts := randomPoints(10000, 50, 15)
	tr := Build(pts, 8)
	if d := tr.MaxTreeDepth(); d < 3 || d > 20 {
		t.Errorf("depth = %d", d)
	}
}

// refBuild builds the tree with a fresh partition buffer for every
// internal node: the reference Build's shared buffer must reproduce.
func refBuild(points []geom.Vec3, leafSize int) *Tree {
	t := &Tree{LeafSize: leafSize, points: points, Items: make([]int32, len(points))}
	for i := range t.Items {
		t.Items[i] = int32(i)
	}
	var build func(start, end int32, bounds geom.AABB, parent int32, depth uint8) int32
	build = func(start, end int32, bounds geom.AABB, parent int32, depth uint8) int32 {
		idx := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{Start: start, End: end, Parent: parent, Depth: depth, Children: noChildren()})
		var c geom.Vec3
		for _, it := range t.Items[start:end] {
			c = c.Add(t.points[it])
		}
		c = c.Scale(1 / float64(end-start))
		r2 := 0.0
		for _, it := range t.Items[start:end] {
			r2 = math.Max(r2, c.Dist2(t.points[it]))
		}
		t.Nodes[idx].Center, t.Nodes[idx].Radius = c, math.Sqrt(r2)
		if int(end-start) <= t.LeafSize || depth >= maxDepth {
			t.Nodes[idx].Leaf = true
			return idx
		}
		var counts [8]int32
		for _, it := range t.Items[start:end] {
			counts[bounds.OctantIndex(t.points[it])]++
		}
		var offsets [9]int32
		for o := 0; o < 8; o++ {
			offsets[o+1] = offsets[o] + counts[o]
		}
		tmp := make([]int32, end-start)
		var fill [8]int32
		for _, it := range t.Items[start:end] {
			o := bounds.OctantIndex(t.points[it])
			tmp[offsets[o]+fill[o]] = it
			fill[o]++
		}
		copy(t.Items[start:end], tmp)
		for o := 0; o < 8; o++ {
			if counts[o] == end-start && bounds.MaxExtent() < 1e-9 {
				t.Nodes[idx].Leaf = true
				return idx
			}
		}
		for o := 0; o < 8; o++ {
			if counts[o] > 0 {
				t.Nodes[idx].Children[o] = build(start+offsets[o], start+offsets[o+1], bounds.Octant(o), idx, depth+1)
			}
		}
		return idx
	}
	build(0, int32(len(points)), geom.BoundPoints(points).Cube(), NoChild, 0)
	return t
}

// TestBuildMatchesPerNodeBuffers: on roster atoms (leaf 8) and their
// surface quadrature points (leaf 32), Build's one partition buffer
// yields exactly the Items and Nodes of a fresh buffer per node.
func TestBuildMatchesPerNodeBuffers(t *testing.T) {
	maxAtoms := 2200
	if testing.Short() {
		maxAtoms = 800
	}
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break
		}
		m := molecule.ZDockMolecule(e)
		surf, err := surface.Build(m, surface.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			pts  []geom.Vec3
			leaf int
		}{{m.Positions(), 8}, {surf.Positions(), 32}} {
			got, want := Build(c.pts, c.leaf), refBuild(c.pts, c.leaf)
			if !slices.Equal(got.Items, want.Items) || !slices.Equal(got.Nodes, want.Nodes) {
				t.Fatalf("%s, %d points, leaf %d: Build differs from the per-node-buffer build", e.Name, len(c.pts), c.leaf)
			}
		}
	}
}

// TestBuildAllocsIndependentOfNodeCount: Build allocates the tree, its
// item array, one partition buffer and the node array (with its few
// append regrowths), however many internal nodes it splits.
func TestBuildAllocsIndependentOfNodeCount(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		pts := randomPoints(n, 10, int64(n))
		internal := 0
		for _, nd := range Build(pts, 8).Nodes {
			if !nd.Leaf {
				internal++
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { Build(pts, 8) }); allocs > 8 {
			t.Errorf("%d points (%d internal nodes): %v allocations per Build, want ≤ 8", n, internal, allocs)
		}
	}
}

func TestTreePointAccessor(t *testing.T) {
	pts := randomPoints(10, 3, 33)
	tr := Build(pts, 4)
	for i, p := range pts {
		if tr.Point(int32(i)) != p {
			t.Fatalf("Point(%d) = %v, want %v", i, tr.Point(int32(i)), p)
		}
	}
}
