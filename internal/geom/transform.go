package geom

import "math"

// Mat3 is a 3×3 matrix in row-major order.
type Mat3 [9]float64

// Identity3 returns the identity matrix.
func Identity3() Mat3 {
	return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}
}

// MulVec applies the matrix to a vector.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[3*i+k] * n[3*k+j]
			}
			r[3*i+j] = s
		}
	}
	return r
}

// Transpose returns the matrix transpose.
func (m Mat3) Transpose() Mat3 {
	return Mat3{
		m[0], m[3], m[6],
		m[1], m[4], m[7],
		m[2], m[5], m[8],
	}
}

// RotationAxis returns the rotation by angle radians about the given axis
// (Rodrigues' formula). The axis need not be normalized; a zero axis yields
// the identity.
func RotationAxis(axis Vec3, angle float64) Mat3 {
	u := axis.Unit()
	if u.Norm2() == 0 {
		return Identity3()
	}
	c, s := math.Cos(angle), math.Sin(angle)
	t := 1 - c
	x, y, z := u.X, u.Y, u.Z
	return Mat3{
		t*x*x + c, t*x*y - s*z, t*x*z + s*y,
		t*x*y + s*z, t*y*y + c, t*y*z - s*x,
		t*x*z - s*y, t*y*z + s*x, t*z*z + c,
	}
}

// Transform is a rigid-body transform: rotation followed by translation.
// The paper reuses octrees across ligand placements in docking by applying
// rigid transforms instead of rebuilding (Section IV-C, Step 1); Transform
// is the tool for that.
type Transform struct {
	R Mat3
	T Vec3
}

// IdentityTransform returns the no-op transform.
func IdentityTransform() Transform { return Transform{R: Identity3()} }

// Translate returns a pure-translation transform.
func Translate(t Vec3) Transform { return Transform{R: Identity3(), T: t} }

// Rotate returns a pure-rotation transform about the origin.
func Rotate(axis Vec3, angle float64) Transform {
	return Transform{R: RotationAxis(axis, angle)}
}

// Apply maps a point through the transform.
func (tr Transform) Apply(p Vec3) Vec3 { return tr.R.MulVec(p).Add(tr.T) }

// ApplyVector maps a direction (normal) through the transform: rotation
// only, no translation.
func (tr Transform) ApplyVector(v Vec3) Vec3 { return tr.R.MulVec(v) }

// Compose returns the transform equivalent to applying `other` first and
// then tr: (tr ∘ other)(p) = tr(other(p)).
func (tr Transform) Compose(other Transform) Transform {
	return Transform{
		R: tr.R.Mul(other.R),
		T: tr.R.MulVec(other.T).Add(tr.T),
	}
}
