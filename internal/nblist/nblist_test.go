package nblist

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

func randomPoints(n int, spread float64, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V(rng.Float64()*spread, rng.Float64()*spread, rng.Float64()*spread)
	}
	return pts
}

// visitOrder returns what ForEachWithin must visit: every point that
// passes its distance test, once each, in (cell, slot) order. A cell's
// slots fill in index order, so that is (cell, index) order.
func visitOrder(g *CellGrid, pts []geom.Vec3, p geom.Vec3, cutoff float64) []int {
	var want []int
	for i, q := range pts {
		if q.Dist2(p) <= cutoff*cutoff {
			want = append(want, i)
		}
	}
	slices.SortStableFunc(want, func(a, b int) int { return g.cellIndex(pts[a]) - g.cellIndex(pts[b]) })
	return want
}

func checkVisits(t *testing.T, g *CellGrid, pts []geom.Vec3, p geom.Vec3, cutoff float64) {
	t.Helper()
	var got []int
	g.ForEachWithin(p, cutoff, func(i int) bool { got = append(got, i); return true })
	if want := visitOrder(g, pts, p, cutoff); !slices.Equal(got, want) {
		t.Fatalf("query %v, cutoff %v, cell %v: visited %v, want %v", p, cutoff, g.CellSize(), got, want)
	}
}

func TestCellGridMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 20, 1)
	grid := NewCellGrid(pts, 3)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		p := geom.V(rng.Float64()*20, rng.Float64()*20, rng.Float64()*20)
		checkVisits(t, grid, pts, p, 0.5+rng.Float64()*6)
	}

	// Boundary cases on the integer lattice [0, 12]³ with 3 Å cells:
	// every third lattice plane is a cell face, and from a lattice query
	// the points at ±cutoff along each axis sit exactly at the cutoff.
	var lattice []geom.Vec3
	for z := 0; z <= 12; z++ {
		for y := 0; y <= 12; y++ {
			for x := 0; x <= 12; x++ {
				lattice = append(lattice, geom.V(float64(x), float64(y), float64(z)))
			}
		}
	}
	grid = NewCellGrid(lattice, 3)
	queries := []geom.Vec3{
		geom.V(6, 6, 6), geom.V(3, 3, 3), geom.V(0, 0, 0), geom.V(12, 12, 12), geom.V(5.5, 6.5, 3),
		// Outside the grid's box.
		geom.V(-3, 6, 6), geom.V(15, 15, 15), geom.V(6, -6, 18), geom.V(-100, -100, -100),
	}
	axisHits := 0
	for _, p := range queries {
		for _, cutoff := range []float64{1, 3, 6, 2.5, 9} { // 3 and 6 are 1× and 2× the cell size
			checkVisits(t, grid, lattice, p, cutoff)
			for _, q := range []geom.Vec3{p.Add(geom.V(cutoff, 0, 0)), p.Sub(geom.V(cutoff, 0, 0)),
				p.Add(geom.V(0, cutoff, 0)), p.Sub(geom.V(0, cutoff, 0)),
				p.Add(geom.V(0, 0, cutoff)), p.Sub(geom.V(0, 0, cutoff))} {
				if slices.Contains(lattice, q) {
					axisHits++ // checkVisits required q's visit: Dist2 == cutoff² passes
				}
			}
		}
	}
	if axisHits == 0 {
		t.Error("no lattice point lay exactly at a query's cutoff")
	}

	// Rounding: fl(p_x − cutoff) is 3, a cell face, while q_x is the float
	// just below 3 and passes the distance test with |q − p|² == cutoff² in
	// floating point. Only the box's pad keeps q's cell in the scan.
	pts = []geom.Vec3{{}, geom.V(2.9999999999999996, 0, 0), geom.V(12, 0, 0)}
	checkVisits(t, NewCellGrid(pts, 1), pts, geom.V(10.381329385902351, 0, 0), 7.381329385902351)
}

func TestCellGridAutoCellSize(t *testing.T) {
	pts := randomPoints(100, 10, 3)
	grid := NewCellGrid(pts, 0)
	if grid.CellSize() <= 0 {
		t.Fatalf("auto cell size = %v", grid.CellSize())
	}
	if got := grid.CountWithin(pts[0], 1e-9); got < 1 {
		t.Errorf("point not found in its own cell: %d", got)
	}
}

func TestCellGridEmpty(t *testing.T) {
	grid := NewCellGrid(nil, 1)
	if grid.NumPoints() != 0 {
		t.Errorf("NumPoints = %d", grid.NumPoints())
	}
	called := false
	grid.ForEachWithin(geom.V(0, 0, 0), 100, func(int) bool { called = true; return true })
	if called {
		t.Error("callback on empty grid")
	}
}

func TestCellGridEarlyStop(t *testing.T) {
	pts := randomPoints(100, 5, 4)
	grid := NewCellGrid(pts, 1)
	n := 0
	complete := grid.ForEachWithin(geom.V(2.5, 2.5, 2.5), 10, func(int) bool {
		n++
		return n < 5
	})
	if complete {
		t.Error("scan reported complete despite early stop")
	}
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

func TestCellGridCoincidentPoints(t *testing.T) {
	pts := []geom.Vec3{{}, {}, {}, {}}
	grid := NewCellGrid(pts, 1)
	if got := grid.CountWithin(geom.Vec3{}, 0.1); got != 4 {
		t.Errorf("CountWithin = %d, want 4", got)
	}
}

func TestPairListMatchesBruteForce(t *testing.T) {
	pts := randomPoints(300, 15, 5)
	const cutoff = 4.0
	pl, err := BuildPairList(pts, cutoff, 0)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ i, j int }
	got := map[pair]bool{}
	pl.ForEachPair(func(i, j int) {
		if i >= j {
			t.Fatalf("pair (%d,%d) not half-ordered", i, j)
		}
		got[pair{i, j}] = true
	})
	want := 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= cutoff {
				want++
				if !got[pair{i, j}] {
					t.Fatalf("missing pair (%d,%d)", i, j)
				}
			}
		}
	}
	if len(got) != want || pl.NumPairs() != want {
		t.Errorf("pairs = %d (NumPairs %d), want %d", len(got), pl.NumPairs(), want)
	}
}

func TestPairListNeighborsOf(t *testing.T) {
	pts := []geom.Vec3{{}, geom.V(1, 0, 0), geom.V(10, 0, 0)}
	pl, err := BuildPairList(pts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb := pl.NeighborsOf(0)
	if len(nb) != 1 || nb[0] != 1 {
		t.Errorf("NeighborsOf(0) = %v", nb)
	}
	if len(pl.NeighborsOf(2)) != 0 {
		t.Errorf("NeighborsOf(2) = %v", pl.NeighborsOf(2))
	}
}

func TestPairListMemoryLimit(t *testing.T) {
	pts := randomPoints(500, 5, 6) // dense: many pairs
	_, err := BuildPairList(pts, 5, 128)
	if err == nil {
		t.Fatal("expected memory-limit error")
	}
	if _, ok := err.(*ErrMemoryLimit); !ok {
		t.Fatalf("error type = %T", err)
	}
}

// The paper's §II claim: nblist memory grows ~cubically with the cutoff
// while octree memory is cutoff-independent. Verify the cubic growth.
func TestPairListCubicGrowthWithCutoff(t *testing.T) {
	pts := randomPoints(2000, 30, 7)
	m1, err := BuildPairList(pts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildPairList(pts, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(m2.NumPairs()) / float64(math.Max(1, float64(m1.NumPairs())))
	// Doubling the cutoff should multiply pairs by ≈8 (allow 5–12 for
	// boundary effects).
	if ratio < 5 || ratio > 12 {
		t.Errorf("pair growth ratio = %v, want ≈8", ratio)
	}
	if m2.MemoryBytes() <= m1.MemoryBytes() {
		t.Error("memory did not grow with cutoff")
	}
}

// NewCellGrid used to size its cell array from the points' span alone:
// two valid atoms 2·10⁴ Å apart at the surface sampler's 6.4 Å cells
// asked for 3·10¹⁰ cells, and a span of 2e300 overflowed the int count.
// The cell size now grows until the grid holds O(n) cells, and the box
// query stays exact at any cell size.
func TestCellGridCapsCellCount(t *testing.T) {
	far := 9999.999
	for _, pts := range [][]geom.Vec3{
		{geom.V(-far, -far, -far), geom.V(far, far, far)},
		{geom.V(-1e300, -1e300, -1e300), geom.V(1e300, 1e300, 1e300)},
		append(randomPoints(60, 10, 8), geom.V(-1e300, 0, 1e300), geom.V(2e4, 5, 5)),
	} {
		g := NewCellGrid(pts, 6.4)
		if cells, limit := len(g.cellStart)-1, 8*len(pts)+64; cells > limit {
			t.Fatalf("%d points: %d cells, want at most %d", len(pts), cells, limit)
		}
		queries := append([]geom.Vec3{geom.V(0, 0, 0), geom.V(5, 5, 5), geom.V(1e301, 0, -1e301)}, pts...)
		for _, p := range queries {
			for _, cutoff := range []float64{1, 6.4, 3e4, 1e200} {
				checkVisits(t, g, pts, p, cutoff)
			}
		}
	}
}

// The cap must not bind on real inputs. Every roster molecule keeps the
// cell size its callers ask for: md's 2·r_max, the surface sampler's
// 2·(r_max + probe) with and without the water probe, and the pair-list
// cutoffs. Their grids, and so their callback orders, are the uncapped
// ones.
func TestCellGridCapSparesRoster(t *testing.T) {
	for _, e := range molecule.ZDockRoster() {
		m := molecule.ZDockMolecule(e)
		pos := m.Positions()
		for _, size := range []float64{2 * m.MaxRadius(), 2 * (m.MaxRadius() + 1.4), 6, 12, 16, 24} {
			if got := NewCellGrid(pos, size).CellSize(); got != size {
				t.Errorf("%s (%d atoms): asked for %v Å cells, got %v", e.Name, e.Atoms, size, got)
			}
		}
	}
}
