// Package nblist implements the nonbonded-list machinery traditional MD
// packages use (and the paper contrasts octrees against, §II): uniform
// cell grids for O(1) spatial neighbor queries and explicit cutoff pair
// lists whose memory footprint grows cubically with the cutoff. The
// baseline package emulations (Amber/Gromacs/NAMD/Tinker stand-ins) are
// built on these, and the surface sampler uses the cell grid for burial
// culling.
package nblist

import (
	"math"

	"gbpolar/internal/geom"
)

// CellGrid is a uniform spatial hash over a point set: points are binned
// into cubic cells of a fixed size, and neighborhood queries scan the
// cells that overlap the query's bounding box.
type CellGrid struct {
	origin   geom.Vec3
	cellSize float64
	nx,
	ny,
	nz int
	// CSR layout: cellStart[c]..cellStart[c+1] indexes into pointIdx.
	cellStart []int32
	pointIdx  []int32
	points    []geom.Vec3
}

// NewCellGrid builds a cell grid over the given points with the given cell
// size. A non-positive cell size is replaced by a size that yields ~1
// point per cell, and any cell size grows until the grid holds O(n) cells.
// Construction is O(n).
func NewCellGrid(points []geom.Vec3, cellSize float64) *CellGrid {
	g := &CellGrid{points: points}
	if len(points) == 0 {
		g.cellSize = 1
		g.nx, g.ny, g.nz = 1, 1, 1
		g.cellStart = make([]int32, 2)
		return g
	}
	b := geom.BoundPoints(points)
	s := b.Size()
	if !(cellSize > 0) {
		vol := math.Max(s.X*s.Y*s.Z, 1e-9)
		cellSize = math.Cbrt(vol / float64(len(points)))
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	// Double the cell size until the grid holds at most 8n + 64 cells, so
	// two atoms far apart cannot ask for a cell per Å³ of the space between
	// them. Roster molecules stay under a tenth of the cap at their callers'
	// cell sizes (TestCellGridCapSparesRoster): their grids are uncapped.
	limit := float64(8*len(points) + 64)
	for axisCells(s.X, cellSize)*axisCells(s.Y, cellSize)*axisCells(s.Z, cellSize) > limit {
		cellSize *= 2
	}
	g.cellSize = cellSize
	g.origin = b.Min
	g.nx = int(axisCells(s.X, cellSize))
	g.ny = int(axisCells(s.Y, cellSize))
	g.nz = int(axisCells(s.Z, cellSize))
	ncells := g.nx * g.ny * g.nz
	counts := make([]int32, ncells+1)
	cellOf := make([]int32, len(points))
	for i, p := range points {
		c := g.cellIndex(p)
		cellOf[i] = int32(c)
		counts[c+1]++
	}
	for c := 0; c < ncells; c++ {
		counts[c+1] += counts[c]
	}
	g.cellStart = counts
	g.pointIdx = make([]int32, len(points))
	fill := make([]int32, ncells)
	for i := range points {
		c := cellOf[i]
		g.pointIdx[int(g.cellStart[c])+int(fill[c])] = int32(i)
		fill[c]++
	}
	return g
}

// axisCells returns how many cells of the given size cover span, counted
// in float64 so that a span near the float64 limit cannot overflow an int.
// A NaN span (non-finite points) gets one cell.
func axisCells(span, size float64) float64 {
	n := math.Floor(math.Min(span, math.MaxFloat64)/size) + 1
	if math.IsNaN(n) {
		return 1
	}
	return n
}

// cellIndex returns the linear cell index containing p (clamped to the
// grid bounds).
func (g *CellGrid) cellIndex(p geom.Vec3) int {
	ix := cellCoord((p.X-g.origin.X)/g.cellSize, g.nx)
	iy := cellCoord((p.Y-g.origin.Y)/g.cellSize, g.ny)
	iz := cellCoord((p.Z-g.origin.Z)/g.cellSize, g.nz)
	return (iz*g.ny+iy)*g.nx + ix
}

// cellCoord maps a coordinate in cell units to its cell on an axis of n
// cells. It clamps in float64 before converting, because Go leaves the
// conversion of a value outside int's range (a far query, a huge cutoff)
// implementation-dependent; NaN maps to cell 0.
func cellCoord(v float64, n int) int {
	switch {
	case !(v > 0):
		return 0
	case v >= float64(n-1):
		return n - 1
	}
	return int(v)
}

// NumPoints returns the number of indexed points.
func (g *CellGrid) NumPoints() int { return len(g.points) }

// CellSize returns the grid's cell edge length.
func (g *CellGrid) CellSize() float64 { return g.cellSize }

// ForEachWithin calls fn(i) for every indexed point i with
// |points[i] − p| <= cutoff, in cell order (z, then y, then x) and in
// index order within a cell. fn may return false to stop early; the
// method reports whether the scan ran to completion.
func (g *CellGrid) ForEachWithin(p geom.Vec3, cutoff float64, fn func(i int) bool) bool {
	if len(g.points) == 0 {
		return true
	}
	c2 := cutoff * cutoff
	// Scan the cells that overlap the box [p − r, p + r]. The relative
	// 1e-9 pad is far above the rounding of p ± r and of the distance
	// test, so no point that passes the test lies in a cell outside the
	// box. A cutoff whose square overflows passes every point.
	r := cutoff + 1e-9*(cutoff+math.Abs(p.X)+math.Abs(p.Y)+math.Abs(p.Z))
	if math.IsInf(c2, 1) {
		r = c2
	}
	x0 := cellCoord((p.X-r-g.origin.X)/g.cellSize, g.nx)
	x1 := cellCoord((p.X+r-g.origin.X)/g.cellSize, g.nx)
	y0 := cellCoord((p.Y-r-g.origin.Y)/g.cellSize, g.ny)
	y1 := cellCoord((p.Y+r-g.origin.Y)/g.cellSize, g.ny)
	z0 := cellCoord((p.Z-r-g.origin.Z)/g.cellSize, g.nz)
	z1 := cellCoord((p.Z+r-g.origin.Z)/g.cellSize, g.nz)
	for iz := z0; iz <= z1; iz++ {
		for iy := y0; iy <= y1; iy++ {
			// Cells x0..x1 of a row are contiguous in the CSR arrays.
			row := (iz*g.ny + iy) * g.nx
			for k := g.cellStart[row+x0]; k < g.cellStart[row+x1+1]; k++ {
				i := int(g.pointIdx[k])
				if g.points[i].Dist2(p) <= c2 {
					if !fn(i) {
						return false
					}
				}
			}
		}
	}
	return true
}

// CountWithin returns the number of indexed points within cutoff of p.
func (g *CellGrid) CountWithin(p geom.Vec3, cutoff float64) int {
	n := 0
	g.ForEachWithin(p, cutoff, func(int) bool { n++; return true })
	return n
}

// MemoryBytes estimates the grid's memory footprint in bytes (excluding
// the caller-owned point slice).
func (g *CellGrid) MemoryBytes() int64 {
	return int64(len(g.cellStart))*4 + int64(len(g.pointIdx))*4
}
