package geom

import (
	"math/rand"
	"testing"
)

func TestEmptyAABB(t *testing.T) {
	b := EmptyAABB()
	if !b.IsEmpty() {
		t.Fatal("EmptyAABB not empty")
	}
	if b.Size() != (Vec3{}) {
		t.Errorf("Size of empty = %v", b.Size())
	}
	b = b.ExtendPoint(V(1, 2, 3))
	if b.IsEmpty() {
		t.Fatal("box empty after ExtendPoint")
	}
	if b.Min != V(1, 2, 3) || b.Max != V(1, 2, 3) {
		t.Errorf("degenerate box = %v", b)
	}
}

func TestBoundPoints(t *testing.T) {
	pts := []Vec3{V(1, 0, -1), V(-2, 3, 0), V(0, 0, 5)}
	b := BoundPoints(pts)
	if b.Min != V(-2, 0, -1) || b.Max != V(1, 3, 5) {
		t.Errorf("BoundPoints = %v", b)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box does not contain %v", p)
		}
	}
}

func TestAABBCube(t *testing.T) {
	b := AABB{V(0, 0, 0), V(4, 2, 1)}
	c := b.Cube()
	s := c.Size()
	if s.X != 4 || s.Y != 4 || s.Z != 4 {
		t.Errorf("Cube size = %v", s)
	}
	if c.Center() != b.Center() {
		t.Errorf("Cube center moved: %v vs %v", c.Center(), b.Center())
	}
	// Cube must contain the original box.
	if !c.Contains(b.Min) || !c.Contains(b.Max) {
		t.Error("Cube does not contain original corners")
	}
}

func TestOctants(t *testing.T) {
	b := AABB{V(0, 0, 0), V(2, 2, 2)}
	// The 8 octants must tile the box: equal total volume, disjoint
	// interiors, and OctantIndex must be consistent with Octant.
	for i := 0; i < 8; i++ {
		o := b.Octant(i)
		s := o.Size()
		if s.X != 1 || s.Y != 1 || s.Z != 1 {
			t.Errorf("octant %d size = %v", i, s)
		}
		c := o.Center()
		if got := b.OctantIndex(c); got != i {
			t.Errorf("OctantIndex(center of octant %d) = %d", i, got)
		}
	}
	// Points exactly at the box center go to the upper octant (7).
	if got := b.OctantIndex(b.Center()); got != 7 {
		t.Errorf("OctantIndex(center) = %d, want 7", got)
	}
}

func TestEnclosingBall(t *testing.T) {
	c, r := EnclosingBall(nil)
	if c != (Vec3{}) || r != 0 {
		t.Errorf("EnclosingBall(nil) = %v, %v", c, r)
	}
	// Symmetric set: ball is exact.
	pts := []Vec3{V(1, 0, 0), V(-1, 0, 0), V(0, 1, 0), V(0, -1, 0)}
	c, r = EnclosingBall(pts)
	if !vecAlmostEq(c, Vec3{}, eps) || !almostEq(r, 1, eps) {
		t.Errorf("EnclosingBall = %v, %v", c, r)
	}
}

// Property: every input point is inside the enclosing ball.
func TestEnclosingBallContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		pts := make([]Vec3, n)
		for i := range pts {
			pts[i] = V(rng.NormFloat64()*10, rng.NormFloat64()*10, rng.NormFloat64()*10)
		}
		c, r := EnclosingBall(pts)
		for _, p := range pts {
			if c.Dist(p) > r*(1+1e-12)+1e-12 {
				t.Fatalf("point %v outside ball c=%v r=%v", p, c, r)
			}
		}
	}
}
