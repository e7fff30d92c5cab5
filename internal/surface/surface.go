// Package surface samples Gaussian quadrature points from the molecular
// surface: the inputs the paper's r⁶ Born-radii integral consumes
// ("points sampled from the molecular surface", §II).
//
// The paper obtains its points by triangulating the Gaussian-quadrature
// representation of the molecular surface with external tooling; here the
// surface is the solvent-accessible union-of-spheres surface, tessellated
// per atom with an icosphere whose triangles are culled when buried inside
// neighboring atoms, and each surviving triangle carries a Dunavant
// quadrature rule. Weights are area-corrected so a free atom's sphere
// integrates exactly: the r⁶/r⁴ Born radius of an isolated atom is exact
// at any tessellation level, which anchors the numerical validation.
package surface

import (
	"fmt"
	"math"
	"slices"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/nblist"
	"gbpolar/internal/quadrature"
	"gbpolar/internal/sched"
)

// QPoint is one quadrature point on the molecular surface: position,
// outward unit normal, integration weight (absolute, Å²), and the index of
// the atom whose sphere carries it.
type QPoint struct {
	Pos    geom.Vec3
	Normal geom.Vec3
	Weight float64
	Atom   int32
}

// Surface is the sampled molecular surface.
type Surface struct {
	Points []QPoint
	// Area is the total exposed area: the sum of quadrature weights.
	Area float64
	// ExposedAtoms counts atoms contributing at least one point.
	ExposedAtoms int
}

// Config controls surface sampling density.
type Config struct {
	// IcoLevel is the icosphere subdivision level per atom (default 1:
	// 80 triangles per sphere).
	IcoLevel int
	// RuleDegree is the Dunavant rule degree per triangle (default 1:
	// one point per triangle).
	RuleDegree int
	// ProbeRadius is the solvent-probe radius used for ACCESSIBILITY
	// culling: a surface patch survives only if the probe-inflated
	// spheres leave it uncovered. The quadrature points themselves are
	// always placed on the van der Waals sphere (with vdW-area weights),
	// approximating the solvent-excluded surface by its contact patches —
	// crevices a water molecule cannot reach are not molecular surface,
	// but the integration surface stays the physical one the r⁶ Born
	// integral (Eq. 4) is defined on. 0 reduces to plain vdW culling. It
	// must be finite and non-negative: a NaN or infinite probe, or one
	// that makes the inflated radii negative, culls nothing.
	ProbeRadius float64
}

// DefaultConfig is the sampling density used throughout the benchmarks:
// the solvent-accessible surface (water probe, 1.4 Å) at icosphere level 1
// with a 1-point rule. With it a protein-like globule yields a handful of
// quadrature points per atom, the regime of the paper's workloads (CMV:
// 3.8 q-points/atom). The probe also closes the crevices between
// lattice-generated synthetic atoms so interior atoms are properly buried.
func DefaultConfig() Config { return Config{IcoLevel: 1, RuleDegree: 1, ProbeRadius: 1.4} }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.IcoLevel == 0 {
		c.IcoLevel = 1
	}
	if c.RuleDegree == 0 {
		c.RuleDegree = 1
	}
	return c
}

// Build samples the molecular surface of m under cfg on one worker.
func Build(m *molecule.Molecule, cfg Config) (*Surface, error) {
	return BuildWorkers(m, cfg, 1)
}

// BuildWorkers samples the molecular surface of m under cfg: a burial
// pass (Cull), then an emission pass at cfg.RuleDegree (Culled.Emit),
// each over contiguous atom ranges on the given number of workers, from
// 1 to max(1, atoms). The surface is the same, bit for bit, at every
// worker count.
func BuildWorkers(m *molecule.Molecule, cfg Config, workers int) (*Surface, error) {
	cfg = cfg.withDefaults()
	if _, err := quadrature.Dunavant(cfg.RuleDegree); err != nil {
		return nil, err
	}
	c, err := Cull(m, cfg, workers)
	if err != nil {
		return nil, err
	}
	return c.Emit(cfg.RuleDegree, workers)
}

// Culled is a molecule's burial pass: each atom's icosphere triangles
// that accessibility culling keeps, in mesh order. Its size grows with
// the surviving triangles, not with atoms × mesh triangles. The rule
// degree plays no part in it, so one Culled serves every degree.
type Culled struct {
	m    *molecule.Molecule
	mesh quadrature.SphereMesh
	corr float64
	// start and tris are a CSR list: atom i keeps the mesh triangles
	// tris[start[i]:start[i+1]].
	start []int
	tris  []uint32
}

// Cull runs the burial pass of m under cfg on the given number of
// workers; cfg.RuleDegree is not read.
func Cull(m *molecule.Molecule, cfg Config, workers int) (*Culled, error) {
	cfg = cfg.withDefaults()
	if cfg.IcoLevel < 0 || cfg.IcoLevel > 6 {
		return nil, fmt.Errorf("surface: icosphere level %d out of range [0,6]", cfg.IcoLevel)
	}
	if !(cfg.ProbeRadius >= 0) || math.IsInf(cfg.ProbeRadius, 1) {
		return nil, fmt.Errorf("surface: probe radius %v must be finite and non-negative", cfg.ProbeRadius)
	}
	n := m.NumAtoms()
	if err := checkWorkers(workers, n); err != nil {
		return nil, err
	}
	mesh := quadrature.Icosphere(cfg.IcoLevel)
	cens := make([]geom.Vec3, len(mesh.Triangles))
	for t, tr := range mesh.Triangles {
		cens[t] = mesh.Vertices[tr.A].Add(mesh.Vertices[tr.B]).Add(mesh.Vertices[tr.C]).Unit()
	}
	maxR := m.MaxRadius() + cfg.ProbeRadius
	b := &burial{m: m, probe: cfg.ProbeRadius, maxR: maxR, grid: nblist.NewCellGrid(m.Positions(), 2*maxR), cens: cens}
	// Spherical-area correction: the inscribed triangulation underestimates
	// the sphere area by a constant factor at a given level; scaling the
	// planar weights by 4π/meshArea makes a full sphere integrate exactly.
	c := &Culled{m: m, mesh: mesh, corr: 4 * 3.141592653589793 / mesh.Area(), start: make([]int, n+1)}
	chunks := numChunks(workers, n)
	parts := make([][]uint32, chunks)
	nbs := make([][]burier, workers)
	fanOut(workers, chunks, func(w, k int) {
		lo, hi := chunkRange(k, chunks, n)
		var tris []uint32
		for i := lo; i < hi; i++ {
			before := len(tris)
			tris, nbs[w] = b.cullAtom(tris, nbs[w], i)
			c.start[i+1] = len(tris) - before
		}
		parts[k] = tris
	})
	for i := range n {
		c.start[i+1] += c.start[i]
	}
	if chunks == 1 {
		c.tris = parts[0]
	} else {
		c.tris = slices.Concat(parts...)
	}
	return c, nil
}

// Emit places the Dunavant rule of the given degree on every surviving
// triangle, on the given number of workers: each atom's points go to
// their prefix-sum offset in one exact-size Points slice, and Area is
// then summed over the points in atom order.
func (c *Culled) Emit(degree, workers int) (*Surface, error) {
	rule, err := quadrature.Dunavant(degree)
	if err != nil {
		return nil, err
	}
	n := c.m.NumAtoms()
	if err := checkWorkers(workers, n); err != nil {
		return nil, err
	}
	s := &Surface{}
	if len(c.tris) > 0 {
		s.Points = make([]QPoint, len(c.tris)*rule.NumPoints())
	}
	chunks := numChunks(workers, n)
	qbufs := make([][]quadrature.QuadPoint, workers)
	fanOut(workers, chunks, func(w, k int) {
		lo, hi := chunkRange(k, chunks, n)
		qbufs[w] = c.emitAtoms(s.Points, qbufs[w], rule, lo, hi)
	})
	for i := range n {
		if c.start[i+1] > c.start[i] {
			s.ExposedAtoms++
		}
	}
	for _, q := range s.Points {
		s.Area += q.Weight
	}
	return s, nil
}

// emitAtoms writes the points of atoms [lo, hi) into pts, at their
// offsets, and returns the rule buffer for reuse. Each point is the
// rule's point on the vdW-scaled triangle, projected radially onto the
// vdW sphere so normals are exact, with the corrected planar weight.
func (c *Culled) emitAtoms(pts []QPoint, qbuf []quadrature.QuadPoint, rule quadrature.TriangleRule, lo, hi int) []quadrature.QuadPoint {
	vs := c.mesh.Vertices
	np := rule.NumPoints()
	for i := lo; i < hi; i++ {
		a := c.m.Atoms[i]
		rVdW := a.Radius // integration radius
		for k := c.start[i]; k < c.start[i+1]; k++ {
			tr := c.mesh.Triangles[c.tris[k]]
			qbuf = rule.ForTriangle(qbuf[:0],
				a.Pos.Add(vs[tr.A].Scale(rVdW)), a.Pos.Add(vs[tr.B].Scale(rVdW)), a.Pos.Add(vs[tr.C].Scale(rVdW)))
			for j, qp := range qbuf {
				dir := qp.P.Sub(a.Pos).Unit()
				pts[k*np+j] = QPoint{Pos: a.Pos.Add(dir.Scale(rVdW)), Normal: dir, Weight: qp.W * c.corr, Atom: int32(i)}
			}
		}
	}
	return qbuf
}

// checkWorkers refuses a worker count below one or above the atoms to
// share out; one worker is always allowed.
func checkWorkers(workers, atoms int) error {
	if workers < 1 || workers > max(1, atoms) {
		return fmt.Errorf("surface: %d workers for %d atoms, want 1 to max(1, atoms)", workers, atoms)
	}
	return nil
}

// numChunks is the number of contiguous atom ranges a pass over n atoms
// is cut into: one for one worker, else eight per worker, so that
// stealing evens out ranges of unequal cost.
func numChunks(workers, n int) int {
	if workers == 1 {
		return min(n, 1)
	}
	return min(n, 8*workers)
}

// chunkRange is the atom range [lo, hi) of chunk k of chunks over n atoms.
func chunkRange(k, chunks, n int) (lo, hi int) {
	return k * n / chunks, (k + 1) * n / chunks
}

// fanOut runs fn once per chunk in [0, chunks), passing the index of the
// worker that runs it: inline for one worker, else on a sched pool of
// that many workers, whose goroutines have exited when fanOut returns.
func fanOut(workers, chunks int, fn func(worker, chunk int)) {
	if workers == 1 {
		for k := range chunks {
			fn(0, k)
		}
		return
	}
	pool := sched.New(workers)
	defer pool.Close()
	pool.ParallelRange(chunks, 1, func(w *sched.Worker, lo, hi int) {
		for k := lo; k < hi; k++ {
			fn(w.ID(), k)
		}
	})
}

// burial is one cull's read-only state, shared by every atom.
type burial struct {
	m     *molecule.Molecule
	probe float64
	maxR  float64 // largest accessibility radius
	grid  *nblist.CellGrid
	cens  []geom.Vec3 // unit triangle centres, one per mesh triangle
}

// burier is a neighbour that may bury part of an atom's sphere: its
// centre and its squared probe-inflated radius less the burial tolerance.
type burier struct {
	pos geom.Vec3
	r2  float64
}

// cullAtom appends to tris the index of every mesh triangle of atom i
// whose centre, placed on the probe-inflated sphere, lies outside every
// inflated neighbour. nb is working memory for the neighbours, returned
// for reuse.
func (b *burial) cullAtom(tris []uint32, nb []burier, i int) ([]uint32, []burier) {
	a := b.m.Atoms[i]
	rAcc := a.Radius + b.probe // accessibility (culling) radius
	nb = nb[:0]
	b.grid.ForEachWithin(a.Pos, rAcc+b.maxR, func(j int) bool {
		const tol = 1e-9
		o := b.m.Atoms[j]
		if rj := o.Radius + b.probe; j != i && o.Pos.Dist(a.Pos) < rAcc+rj {
			nb = append(nb, burier{pos: o.Pos, r2: (rj - tol) * (rj - tol)})
		}
		return true
	})
	for t, cen := range b.cens {
		if !covers(nb, a.Pos.Add(cen.Scale(rAcc))) {
			tris = append(tris, uint32(t))
		}
	}
	return tris, nb
}

// covers reports whether p lies strictly inside a gathered neighbour.
// Burial is an any-test, so the neighbours' order cannot change the
// answer; a neighbour that buries p moves to the front, because adjacent
// triangles of an atom tend to be buried by the same neighbour.
func covers(nb []burier, p geom.Vec3) bool {
	for k, o := range nb {
		if p.Dist2(o.pos) < o.r2 {
			nb[0], nb[k] = o, nb[0]
			return true
		}
	}
	return false
}

// NumPoints returns the number of quadrature points.
func (s *Surface) NumPoints() int { return len(s.Points) }

// Positions returns a freshly allocated slice of the point positions.
func (s *Surface) Positions() []geom.Vec3 {
	ps := make([]geom.Vec3, len(s.Points))
	for i, q := range s.Points {
		ps[i] = q.Pos
	}
	return ps
}

// ApplyTransform returns a copy of the surface with positions and normals
// mapped through the rigid transform tr — the docking-scan reuse path
// (§IV-C Step 1: move the octree instead of rebuilding).
func (s *Surface) ApplyTransform(tr geom.Transform) *Surface {
	out := &Surface{
		Points:       make([]QPoint, len(s.Points)),
		Area:         s.Area,
		ExposedAtoms: s.ExposedAtoms,
	}
	for i, q := range s.Points {
		out.Points[i] = QPoint{
			Pos:    tr.Apply(q.Pos),
			Normal: tr.ApplyVector(q.Normal),
			Weight: q.Weight,
			Atom:   q.Atom,
		}
	}
	return out
}

// PerAtomArea returns each atom's exposed surface area (the sum of its
// quadrature weights): the solvent-accessible-surface-area (SASA)
// decomposition that the nonpolar half of GB/SA solvation consumes.
func (s *Surface) PerAtomArea(numAtoms int) []float64 {
	areas := make([]float64, numAtoms)
	for _, q := range s.Points {
		if int(q.Atom) < numAtoms {
			areas[q.Atom] += q.Weight
		}
	}
	return areas
}
