package geom

import "math"

// AABB is an axis-aligned bounding box, described by its minimum and
// maximum corners. An AABB with Min > Max in any coordinate is "empty";
// EmptyAABB returns the canonical empty box.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box that contains nothing; extending it with any
// point yields a degenerate box at that point.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// BoundPoints returns the tightest AABB containing all the given points.
func BoundPoints(pts []Vec3) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the smallest box containing b and p.
func (b AABB) ExtendPoint(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Center returns the center of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the box extents along each axis.
func (b AABB) Size() Vec3 {
	if b.IsEmpty() {
		return Vec3{}
	}
	return b.Max.Sub(b.Min)
}

// MaxExtent returns the largest axis extent of the box.
func (b AABB) MaxExtent() float64 {
	s := b.Size()
	return math.Max(s.X, math.Max(s.Y, s.Z))
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Cube returns the smallest cube sharing b's center that contains b. Octree
// construction uses cubical root boxes so octants subdivide uniformly.
func (b AABB) Cube() AABB {
	if b.IsEmpty() {
		return b
	}
	h := b.MaxExtent() / 2
	c := b.Center()
	d := Vec3{h, h, h}
	return AABB{Min: c.Sub(d), Max: c.Add(d)}
}

// Octant returns the i-th (0..7) octant of the box, splitting at the
// center. Bit 0 of i selects the upper half in X, bit 1 in Y, bit 2 in Z.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	o := b
	if i&1 != 0 {
		o.Min.X = c.X
	} else {
		o.Max.X = c.X
	}
	if i&2 != 0 {
		o.Min.Y = c.Y
	} else {
		o.Max.Y = c.Y
	}
	if i&4 != 0 {
		o.Min.Z = c.Z
	} else {
		o.Max.Z = c.Z
	}
	return o
}

// OctantIndex returns the index (0..7) of the octant of b that contains p,
// using the same bit convention as Octant. Points exactly on a splitting
// plane go to the upper octant.
func (b AABB) OctantIndex(p Vec3) int {
	c := b.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	if p.Z >= c.Z {
		i |= 4
	}
	return i
}

// EnclosingBall returns the center and radius of a ball that encloses all
// points: the ball centered at the centroid with radius the maximum
// distance to any point. This is what the paper uses for node radii r_A,
// r_Q ("radius of the smallest ball that encloses all atom centers").
// It is within a factor ~1.16 of the optimal miniball radius and exact for
// symmetric point sets, and — critically — cheap and deterministic.
func EnclosingBall(pts []Vec3) (center Vec3, radius float64) {
	if len(pts) == 0 {
		return Vec3{}, 0
	}
	center = Centroid(pts)
	for _, p := range pts {
		if d := center.Dist2(p); d > radius {
			radius = d
		}
	}
	return center, math.Sqrt(radius)
}
