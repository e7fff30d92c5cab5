package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestMat3Identity(t *testing.T) {
	id := Identity3()
	v := V(1, -2, 3)
	if id.MulVec(v) != v {
		t.Errorf("I·v = %v", id.MulVec(v))
	}
	if id.Mul(id) != id {
		t.Error("I·I != I")
	}
	if det3(id) != 1 {
		t.Errorf("det(I) = %v", det3(id))
	}
}

// det3 is the determinant of m, by cofactors along the first row.
func det3(m Mat3) float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// axisRotation is the closed-form rotation by angle a about coordinate
// axis i (0: x, 1: y, 2: z).
func axisRotation(i int, a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	switch i {
	case 0:
		return Mat3{1, 0, 0, 0, c, -s, 0, s, c}
	case 1:
		return Mat3{c, 0, s, 0, 1, 0, -s, 0, c}
	}
	return Mat3{c, -s, 0, s, c, 0, 0, 0, 1}
}

func TestRotationBasics(t *testing.T) {
	// Rz(90°) maps x to y.
	r := RotationAxis(V(0, 0, 1), math.Pi/2)
	got := r.MulVec(V(1, 0, 0))
	if !vecAlmostEq(got, V(0, 1, 0), 1e-12) {
		t.Errorf("Rz(90)·x = %v", got)
	}
	// Rx(90°) maps y to z.
	got = RotationAxis(V(1, 0, 0), math.Pi/2).MulVec(V(0, 1, 0))
	if !vecAlmostEq(got, V(0, 0, 1), 1e-12) {
		t.Errorf("Rx(90)·y = %v", got)
	}
	// Ry(90°) maps z to x.
	got = RotationAxis(V(0, 1, 0), math.Pi/2).MulVec(V(0, 0, 1))
	if !vecAlmostEq(got, V(1, 0, 0), 1e-12) {
		t.Errorf("Ry(90)·z = %v", got)
	}
}

func TestRotationAxisMatchesAxisRotations(t *testing.T) {
	angles := []float64{0, 0.3, -1.1, math.Pi, 2.5}
	for _, a := range angles {
		axes := []Vec3{V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)}
		for i, axis := range axes {
			r, want := RotationAxis(axis, a), axisRotation(i, a)
			for j := 0; j < 9; j++ {
				if !almostEq(r[j], want[j], 1e-12) {
					t.Fatalf("axis %v angle %v entry %d: %v vs %v", axis, a, j, r[j], want[j])
				}
			}
		}
	}
}

func TestRotationAxisZero(t *testing.T) {
	if RotationAxis(Vec3{}, 1.0) != Identity3() {
		t.Error("zero axis should give identity")
	}
}

func TestRotationIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		axis := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		r := RotationAxis(axis, rng.Float64()*2*math.Pi)
		// R·Rᵀ = I and det = +1.
		p := r.Mul(r.Transpose())
		id := Identity3()
		for j := 0; j < 9; j++ {
			if !almostEq(p[j], id[j], 1e-10) {
				t.Fatalf("R·Rᵀ entry %d = %v", j, p[j])
			}
		}
		if !almostEq(det3(r), 1, 1e-10) {
			t.Fatalf("det = %v", det3(r))
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		tr := Transform{
			R: RotationAxis(V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()), rng.Float64()*6),
			T: V(rng.NormFloat64()*5, rng.NormFloat64()*5, rng.NormFloat64()*5),
		}
		// The inverse of a rigid transform: Rᵀ, then −RᵀT.
		rt := tr.R.Transpose()
		inv := Transform{R: rt, T: rt.MulVec(tr.T).Scale(-1)}
		p := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		back := inv.Apply(tr.Apply(p))
		if !vecAlmostEq(back, p, 1e-10) {
			t.Fatalf("round trip %v -> %v", p, back)
		}
	}
}

func TestTransformCompose(t *testing.T) {
	a := Rotate(V(0, 0, 1), math.Pi/2)
	b := Translate(V(1, 0, 0))
	// (a∘b)(p) = a(b(p)): translate then rotate.
	p := V(0, 0, 0)
	got := a.Compose(b).Apply(p)
	want := a.Apply(b.Apply(p)) // rotate (1,0,0) by 90° about z = (0,1,0)
	if !vecAlmostEq(got, want, 1e-12) || !vecAlmostEq(got, V(0, 1, 0), 1e-12) {
		t.Errorf("compose = %v, want %v", got, want)
	}
}

func TestTransformPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := Transform{
		R: RotationAxis(V(1, 2, 3), 1.234),
		T: V(4, -5, 6),
	}
	for i := 0; i < 50; i++ {
		p := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		q := V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if !almostEq(p.Dist(q), tr.Apply(p).Dist(tr.Apply(q)), 1e-10) {
			t.Fatal("rigid transform changed a distance")
		}
	}
}

func TestApplyVectorIgnoresTranslation(t *testing.T) {
	tr := Translate(V(100, 100, 100))
	n := V(0, 0, 1)
	if tr.ApplyVector(n) != n {
		t.Error("ApplyVector applied translation")
	}
}
