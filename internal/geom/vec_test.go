package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return almostEq(a.X, b.X, tol) && almostEq(a.Y, b.Y, tol) && almostEq(a.Z, b.Z, tol)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-4, 5, 0.5)
	if got := a.Add(b); got != V(-3, 7, 3.5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(5, -3, 2.5) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -4+10+1.5 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecCross(t *testing.T) {
	x, y, z := V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x×y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y×z = %v, want x", got)
	}
	if got := z.Cross(x); got != y {
		t.Errorf("z×x = %v, want y", got)
	}
}

func TestVecNormDist(t *testing.T) {
	v := V(3, 4, 0)
	if v.Norm() != 5 {
		t.Errorf("Norm = %v", v.Norm())
	}
	if v.Norm2() != 25 {
		t.Errorf("Norm2 = %v", v.Norm2())
	}
	if d := V(1, 1, 1).Dist(V(2, 2, 2)); !almostEq(d, math.Sqrt(3), eps) {
		t.Errorf("Dist = %v", d)
	}
}

func TestVecUnit(t *testing.T) {
	u := V(0, 0, 9).Unit()
	if u != V(0, 0, 1) {
		t.Errorf("Unit = %v", u)
	}
	if z := (Vec3{}).Unit(); z != (Vec3{}) {
		t.Errorf("Unit(0) = %v, want zero", z)
	}
}

func TestVecMinMax(t *testing.T) {
	a, b := V(1, 5, -2), V(3, 0, -1)
	if got := a.Min(b); got != V(1, 0, -2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(3, 5, -1) {
		t.Errorf("Max = %v", got)
	}
}

func TestVecIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); got != (Vec3{}) {
		t.Errorf("Centroid(nil) = %v", got)
	}
	pts := []Vec3{V(0, 0, 0), V(2, 0, 0), V(0, 2, 0), V(0, 0, 2)}
	if got := Centroid(pts); got != V(0.5, 0.5, 0.5) {
		t.Errorf("Centroid = %v", got)
	}
}

// Property: cross product is perpendicular to both operands and its norm
// obeys the Lagrange identity |a×b|² = |a|²|b|² − (a·b)².
func TestCrossProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(clamp(ax), clamp(ay), clamp(az))
		b := V(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		tol := 1e-9
		lagrange := a.Norm2()*b.Norm2() - a.Dot(b)*a.Dot(b)
		return almostEq(c.Dot(a), 0, tol*(1+a.Norm2()*b.Norm2())) &&
			almostEq(c.Dot(b), 0, tol*(1+a.Norm2()*b.Norm2())) &&
			almostEq(c.Norm2(), lagrange, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) bool {
		a := V(clamp(ax), clamp(ay), clamp(az))
		b := V(clamp(bx), clamp(by), clamp(bz))
		c := V(clamp(cx), clamp(cy), clamp(cz))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp maps arbitrary float64s from testing/quick into a sane range and
// replaces non-finite values.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}
