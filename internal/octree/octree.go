// Package octree implements the linear-space point octree at the heart of
// the paper's algorithms (§II "Octrees vs. Nblists"): a recursive,
// cache-friendly subdivision of 3-D space whose memory footprint is linear
// in the number of points and — unlike nonbonded lists — independent of
// any approximation parameter or cutoff.
//
// The tree is stored as a flat node array with items permuted so every
// node (internal or leaf) owns a contiguous index range, which is what
// makes traversals cache-friendly and what lets the paper's node-based
// work division hand whole subtree segments to processes.
package octree

import (
	"fmt"
	"math"

	"gbpolar/internal/geom"
)

// NoChild marks an absent child slot.
const NoChild = int32(-1)

// Node is one octree node. Start:End is the node's contiguous range in
// Tree.Items; Center/Radius describe the enclosing ball of the points
// under the node (the r_A, r_Q of the paper's far-field criterion).
type Node struct {
	Start, End int32
	Children   [8]int32
	Parent     int32
	Leaf       bool
	Depth      uint8
	Center     geom.Vec3
	Radius     float64
}

// Count returns the number of points under the node.
func (n *Node) Count() int { return int(n.End - n.Start) }

// Tree is a point octree.
type Tree struct {
	Nodes []Node
	// Items is the permutation of original point indices; node i owns
	// Items[Nodes[i].Start:Nodes[i].End].
	Items []int32
	// LeafSize is the maximum number of points in a leaf (the subdivision
	// threshold used at build time).
	LeafSize int
	points   []geom.Vec3 // the (caller-owned) point positions
}

// maxDepth caps subdivision so coincident points terminate.
const maxDepth = 40

// Build constructs an octree over the given points with the given maximum
// leaf size. The points slice is retained (not copied) — callers must not
// mutate it while the tree is in use. leafSize < 1 defaults to 8.
func Build(points []geom.Vec3, leafSize int) *Tree {
	if leafSize < 1 {
		leafSize = 8
	}
	t := &Tree{LeafSize: leafSize, points: points}
	t.Items = make([]int32, len(points))
	for i := range t.Items {
		t.Items[i] = int32(i)
	}
	if len(points) == 0 {
		t.Nodes = []Node{{Start: 0, End: 0, Leaf: true, Parent: NoChild,
			Children: noChildren()}}
		return t
	}
	bounds := geom.BoundPoints(points).Cube()
	// Estimate node count to reduce reallocation: ~2n/leafSize internal
	// plus leaves.
	t.Nodes = make([]Node, 0, 2*len(points)/leafSize+8)
	t.build(0, int32(len(points)), bounds, NoChild, 0, make([]int32, len(points)))
	return t
}

func noChildren() [8]int32 {
	return [8]int32{NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild}
}

// build creates the node for Items[start:end] within cell bounds and
// returns its index. tmp is the partition buffer, one per Build: a node
// uses only tmp[start:end], which its children reuse after it is done.
func (t *Tree) build(start, end int32, bounds geom.AABB, parent int32, depth uint8, tmp []int32) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{
		Start: start, End: end, Parent: parent, Depth: depth,
		Children: noChildren(),
	})
	// Enclosing ball of the points under this node.
	var c geom.Vec3
	for _, it := range t.Items[start:end] {
		c = c.Add(t.points[it])
	}
	c = c.Scale(1 / float64(end-start))
	r2 := 0.0
	for _, it := range t.Items[start:end] {
		if d := c.Dist2(t.points[it]); d > r2 {
			r2 = d
		}
	}
	t.Nodes[idx].Center = c
	t.Nodes[idx].Radius = math.Sqrt(r2)

	if int(end-start) <= t.LeafSize || depth >= maxDepth {
		t.Nodes[idx].Leaf = true
		return idx
	}
	// Partition items into the 8 octants (counting sort through the
	// node's slice of the partition buffer, stable and deterministic).
	var counts [8]int32
	for _, it := range t.Items[start:end] {
		counts[bounds.OctantIndex(t.points[it])]++
	}
	var offsets [9]int32
	for o := 0; o < 8; o++ {
		offsets[o+1] = offsets[o] + counts[o]
	}
	part := tmp[start:end]
	var fill [8]int32
	for _, it := range t.Items[start:end] {
		o := bounds.OctantIndex(t.points[it])
		part[offsets[o]+fill[o]] = it
		fill[o]++
	}
	copy(t.Items[start:end], part)
	// If every point landed in one octant the cell cannot separate them
	// (coincident or near-coincident points): make a leaf.
	for o := 0; o < 8; o++ {
		if counts[o] == int32(end-start) && bounds.MaxExtent() < 1e-9 {
			t.Nodes[idx].Leaf = true
			return idx
		}
	}
	for o := 0; o < 8; o++ {
		if counts[o] == 0 {
			continue
		}
		cs, ce := start+offsets[o], start+offsets[o+1]
		child := t.build(cs, ce, bounds.Octant(o), idx, depth+1, tmp)
		t.Nodes[idx].Children[o] = child
	}
	return idx
}

// Root returns the root node index (always 0).
func (t *Tree) Root() int32 { return 0 }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// NumPoints returns the number of indexed points.
func (t *Tree) NumPoints() int { return len(t.Items) }

// Point returns the position of original point index i.
func (t *Tree) Point(i int32) geom.Vec3 { return t.points[i] }

// ItemsOf returns the original point indices under node n.
func (t *Tree) ItemsOf(n int32) []int32 {
	node := &t.Nodes[n]
	return t.Items[node.Start:node.End]
}

// Leaves returns the leaf node indices in deterministic (item-range)
// order — the segments the paper's node-based work division slices.
func (t *Tree) Leaves() []int32 {
	out := make([]int32, 0, len(t.Nodes))
	for i := range t.Nodes {
		if t.Nodes[i].Leaf {
			out = append(out, int32(i))
		}
	}
	// Nodes are appended in DFS order, so leaves are already ordered by
	// Start; keep that contract explicit.
	return out
}

// MaxTreeDepth returns the deepest node's depth.
func (t *Tree) MaxTreeDepth() int {
	d := uint8(0)
	for i := range t.Nodes {
		if t.Nodes[i].Depth > d {
			d = t.Nodes[i].Depth
		}
	}
	return int(d)
}

// MemoryBytes estimates the tree's memory footprint: linear in the point
// count, independent of any approximation parameter (the §II contrast
// with nonbonded lists).
func (t *Tree) MemoryBytes() int64 {
	const nodeBytes = 8*4 + 4 + 4 + 2 + 8*3 + 8 // children+range+parent+flags+ball
	return int64(len(t.Nodes))*nodeBytes + int64(len(t.Items))*4
}

// Walk calls fn for every node in DFS pre-order starting at the root,
// descending only where fn returns true.
func (t *Tree) Walk(fn func(n int32) bool) {
	t.walk(0, fn)
}

func (t *Tree) walk(n int32, fn func(n int32) bool) {
	if !fn(n) {
		return
	}
	for _, c := range t.Nodes[n].Children {
		if c != NoChild {
			t.walk(c, fn)
		}
	}
}

// Validate checks the structural invariants of the tree: contiguous,
// non-overlapping child ranges that tile the parent; ball containment of
// every point; parent/child consistency. Intended for tests.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("octree: no nodes")
	}
	seen := make([]bool, len(t.Items))
	for ni := range t.Nodes {
		n := &t.Nodes[ni]
		if n.Start > n.End || int(n.End) > len(t.Items) {
			return fmt.Errorf("octree: node %d has bad range [%d,%d)", ni, n.Start, n.End)
		}
		for _, it := range t.Items[n.Start:n.End] {
			d := n.Center.Dist(t.points[it])
			if d > n.Radius*(1+1e-12)+1e-12 {
				return fmt.Errorf("octree: node %d: point %d outside ball (d=%g r=%g)", ni, it, d, n.Radius)
			}
		}
		if n.Leaf {
			for _, c := range n.Children {
				if c != NoChild {
					return fmt.Errorf("octree: leaf %d has child %d", ni, c)
				}
			}
			for _, it := range t.Items[n.Start:n.End] {
				if seen[it] {
					return fmt.Errorf("octree: point %d in two leaves", it)
				}
				seen[it] = true
			}
			continue
		}
		covered := int32(0)
		for _, c := range n.Children {
			if c == NoChild {
				continue
			}
			ch := &t.Nodes[c]
			if ch.Parent != int32(ni) {
				return fmt.Errorf("octree: node %d: child %d has parent %d", ni, c, ch.Parent)
			}
			if ch.Start < n.Start || ch.End > n.End {
				return fmt.Errorf("octree: child %d range escapes parent %d", c, ni)
			}
			covered += ch.End - ch.Start
		}
		if covered != n.End-n.Start {
			return fmt.Errorf("octree: node %d children cover %d of %d items", ni, covered, n.End-n.Start)
		}
	}
	for i, s := range seen {
		if !s && len(t.Items) > 0 {
			return fmt.Errorf("octree: point %d not in any leaf", i)
		}
	}
	return nil
}

// Transformed returns a copy of the tree whose enclosing balls are mapped
// through the rigid transform tr and whose point accessor serves the given
// pre-transformed positions (which must be tr applied to the original
// points, in the original order). Radii are invariant under rigid motion,
// so the octree is reused without rebuilding — the docking-scan
// optimization of §IV-C Step 1.
func (t *Tree) Transformed(tr geom.Transform, newPoints []geom.Vec3) (*Tree, error) {
	if len(newPoints) != len(t.points) {
		return nil, fmt.Errorf("octree: Transformed needs %d points, got %d", len(t.points), len(newPoints))
	}
	out := &Tree{
		Nodes:    make([]Node, len(t.Nodes)),
		Items:    t.Items, // permutation is position-independent
		LeafSize: t.LeafSize,
		points:   newPoints,
	}
	copy(out.Nodes, t.Nodes)
	for i := range out.Nodes {
		out.Nodes[i].Center = tr.Apply(out.Nodes[i].Center)
	}
	return out, nil
}
