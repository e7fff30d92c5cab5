package gb

import (
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// This file keeps the dense NumNodes·M class layout of APPROX-Epol as an
// oracle: the sparse aggregates must hold exactly its nonzero slots,
// bitwise, every far-field sum and traversal op count must reproduce it,
// and the whole-tree traversal sum must match it to rounding. Its
// per-class-pair far sweep (denseFarClassSum) and the original-index near
// loop (refNearSum) are also the references that pin the production
// kernels, the once-per-class-sum far kernel and the near loop over
// tree-ordered records, bit for bit.

// denseAggregates is the dense layout: slot node*M + k of every array
// holds class k of that node, present or not.
type denseAggregates struct {
	M    int
	powR []float64
	hist []float64
	dip  []geom.Vec3
	quad []geom.Mat3
}

// buildDenseAggregates is the dense bottom-up build over the class
// assignment of agg (M, the class map and powR are layout-independent),
// reading atoms by original index: radii, Mol and atomPos.
func buildDenseAggregates(s *System, radii []float64, agg *epolAggregates) *denseAggregates {
	n := s.TA.NumNodes()
	da := &denseAggregates{M: agg.M, powR: agg.powR,
		hist: make([]float64, n*agg.M), dip: make([]geom.Vec3, n*agg.M)}
	if agg.order == OrderQuadrupole {
		da.quad = make([]geom.Mat3, n*agg.M)
	}
	for i := n - 1; i >= 0; i-- {
		nd := &s.TA.Nodes[i]
		base := i * da.M
		if nd.Leaf {
			for _, ai := range s.TA.ItemsOf(int32(i)) {
				k := agg.class(radii[ai])
				q := s.Mol.Atoms[ai].Charge
				da.hist[base+k] += q
				da.dip[base+k] = da.dip[base+k].Add(s.atomPos[ai].Sub(nd.Center).Scale(q))
				if da.quad != nil {
					m := s.atomPos[ai].Sub(nd.Center)
					addOuter(&da.quad[base+k], m.Scale(q), m)
				}
			}
			continue
		}
		for _, c := range nd.Children {
			if c == octree.NoChild {
				continue
			}
			shift := s.TA.Nodes[c].Center.Sub(nd.Center)
			cbase := int(c) * da.M
			for k := 0; k < da.M; k++ {
				q := da.hist[cbase+k]
				da.hist[base+k] += q
				if da.quad != nil {
					cd := da.dip[cbase+k]
					kq := &da.quad[base+k]
					cq := &da.quad[cbase+k]
					for t := 0; t < 9; t++ {
						kq[t] += cq[t]
					}
					addOuter(kq, shift, cd)
					addOuter(kq, cd, shift)
					addOuter(kq, shift.Scale(q), shift)
				}
				da.dip[base+k] = da.dip[base+k].Add(da.dip[cbase+k]).Add(shift.Scale(q))
			}
		}
	}
	return da
}

// denseFarClassSum is the dense sweep of farClassSum: every class pair,
// empty ones skipped by the same zero test, with the kernel evaluated
// per class pair.
func denseFarClassSum(ua *denseAggregates, u int32, va *denseAggregates, v int32,
	d float64, dvec geom.Vec3, ord int, approx bool) (float64, int64) {
	r2 := d * d
	dhat := dvec.Scale(1 / d)
	sum := 0.0
	ops := int64(0)
	ubase, vbase := int(u)*ua.M, int(v)*va.M
	for i := 0; i < ua.M; i++ {
		qu := ua.hist[ubase+i]
		var du float64
		var dipU geom.Vec3
		if ord >= OrderDipole {
			dipU = ua.dip[ubase+i]
			du = dhat.Dot(dipU)
		}
		if qu == 0 && du == 0 &&
			(ord != OrderQuadrupole || ua.quad[ubase+i] == (geom.Mat3{})) {
			continue
		}
		for j := 0; j < va.M; j++ {
			qv := va.hist[vbase+j]
			var dv float64
			var dipV geom.Vec3
			if ord >= OrderDipole {
				dipV = va.dip[vbase+j]
				dv = dhat.Dot(dipV)
			}
			if qv == 0 && dv == 0 &&
				(ord != OrderQuadrupole || va.quad[vbase+j] == (geom.Mat3{})) {
				continue
			}
			t := ua.powR[i+j]
			var e float64
			if approx {
				e = fastExp(-r2 / (4 * t))
			} else {
				e = math.Exp(-r2 / (4 * t))
			}
			f2 := r2 + t*e
			var invF float64
			if approx {
				invF = fastInvSqrt(f2)
			} else {
				invF = 1 / math.Sqrt(f2)
			}
			if ord == OrderMonopole {
				sum += qu * qv * invF
				ops++
				continue
			}
			gp := -d * (1 - e/4) * invF * invF * invF
			sum += qu*qv*invF + gp*(qu*dv-du*qv)
			if ord == OrderQuadrupole {
				up := 2 * d * (1 - e/4)
				upp := 2*(1-e/4) + (r2/(4*t))*e
				invF3 := invF * invF * invF
				gpp := 0.75*up*up*invF3*invF*invF - 0.5*upp*invF3
				ku, kv := &ua.quad[ubase+i], &va.quad[vbase+j]
				a2 := qu*dhat.Dot(kv.MulVec(dhat)) - 2*du*dv + dhat.Dot(ku.MulVec(dhat))*qv
				b2 := qu*(kv[0]+kv[4]+kv[8]) - 2*dipU.Dot(dipV) + (ku[0]+ku[4]+ku[8])*qv
				sum += 0.5*gpp*a2 + (0.5*gp/d)*(b2-a2)
			}
			ops++
		}
	}
	if ops == 0 {
		ops = 1
	}
	return sum, ops
}

// refNearSum is the exact leaf-pair loop over original atom indices:
// charges from Mol, positions from atomPos, radii by atom index, each
// source atom's row summed from +0 and the rows added in order. With
// same set, un and vn are one leaf: i < j pairs only, plus the self
// terms returned separately. nearSum must match it bit for bit.
func refNearSum(u *System, un int32, uRadii []float64, v *System, vn int32, vRadii []float64,
	same, approx bool) (sum, self float64) {
	uItems, vItems := u.TA.ItemsOf(un), v.TA.ItemsOf(vn)
	for a, ui := range uItems {
		qi, pi, ri := u.Mol.Atoms[ui].Charge, u.atomPos[ui], uRadii[ui]
		vs := vItems
		if same {
			self += qi * qi / ri
			vs = vItems[a+1:]
		}
		row := 0.0
		for _, vi := range vs {
			r2 := pi.Dist2(v.atomPos[vi])
			if qq, rr := qi*v.Mol.Atoms[vi].Charge, ri*vRadii[vi]; approx {
				row += qq * invFGBApprox(r2, rr)
			} else {
				row += qq * (1 / fGB(r2, rr))
			}
		}
		sum += row
	}
	return sum, self
}

// checkNearPair asserts that nearSum over the records of leaves (un, vn)
// reproduces refNearSum's (sum, self) bitwise.
func checkNearPair(t *testing.T, u *System, un int32, uAgg *epolAggregates, uRadii []float64,
	v *System, vn int32, vAgg *epolAggregates, vRadii []float64, same, approx bool) {
	t.Helper()
	ur, uR := u.atomsOf(&u.TA.Nodes[un], uAgg)
	vr, vR := v.atomsOf(&v.TA.Nodes[vn], vAgg)
	gs, gself := nearSum(ur, uR, vr, vR, same, approx)
	ws, wself := refNearSum(u, un, uRadii, v, vn, vRadii, same, approx)
	if !sameBits([]float64{gs, gself}, []float64{ws, wself}) {
		t.Fatalf("leaf pair (%d, %d): records (%v, %v), original-index loop (%v, %v)", un, vn, gs, gself, ws, wself)
	}
}

// denseApproxEpol is the node–node traversal at opening factor factor over
// the dense layout with the near-field term taken through
// pairEnergyKernel's closure.
func denseApproxEpol(s *System, u, v int32, radii []float64, da *denseAggregates, ord int, factor float64) (float64, int64) {
	kernel := pairEnergyKernel(s.Params.Math)
	var walk func(u int32) (float64, int64)
	walk = func(u int32) (float64, int64) {
		un, vn := &s.TA.Nodes[u], &s.TA.Nodes[v]
		d := un.Center.Dist(vn.Center)
		if u != v && !un.Leaf && epolFar(d, un.Radius, vn.Radius, factor) {
			return denseFarClassSum(da, u, da, v, d, vn.Center.Sub(un.Center), ord, s.Params.Math == ApproxMath)
		}
		if un.Leaf {
			sum, ops := 0.0, int64(0)
			for _, ui := range s.TA.ItemsOf(u) {
				qi, pi, ri := s.Mol.Atoms[ui].Charge, s.atomPos[ui], radii[ui]
				for _, vi := range s.TA.ItemsOf(v) {
					if ui == vi {
						sum += qi * qi / ri
					} else {
						sum += kernel(qi*s.Mol.Atoms[vi].Charge, pi.Dist2(s.atomPos[vi]), ri*radii[vi])
					}
					ops++
				}
			}
			return sum, ops
		}
		sum, ops := 0.0, int64(1)
		for _, c := range un.Children {
			if c != octree.NoChild {
				cs, cops := walk(c)
				sum += cs
				ops += cops
			}
		}
		return sum, ops
	}
	return walk(u)
}

// sameBits reports bitwise equality of float64 components.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func vecBits(v geom.Vec3) []float64 { return []float64{v.X, v.Y, v.Z} }

// checkSparseAgainstDense asserts the CSR invariants and the equivalence
// with the dense oracle: stored entries equal their dense slots bitwise,
// unstored slots are zero in the dense layout, every far pair of the
// traversal reproduces the dense sweep's (sum, ops) bitwise, and so does
// every leaf traversal's op count. The node–node traversal
// sums each mutually near leaf pair once, so only its whole-tree sum is
// the ordered-pair oracle's, to rounding.
func checkSparseAgainstDense(t *testing.T, s *System, radii []float64, agg *epolAggregates) {
	t.Helper()
	da := buildDenseAggregates(s, radii, agg)
	ord := agg.order
	approx := s.Params.Math == ApproxMath
	if len(agg.off) != s.TA.NumNodes()+1 || agg.off[0] != 0 || agg.off[len(agg.off)-1] != len(agg.q) ||
		len(agg.cls) != len(agg.q) || len(agg.dip) != len(agg.q) ||
		(ord == OrderQuadrupole) != (agg.quad != nil) || (agg.quad != nil && len(agg.quad) != len(agg.q)) {
		t.Fatalf("malformed CSR: %d offsets for %d nodes, %d/%d/%d/%d entries",
			len(agg.off), s.TA.NumNodes(), len(agg.cls), len(agg.q), len(agg.dip), len(agg.quad))
	}
	for k, ai := range s.TA.Items {
		if math.Float64bits(agg.radii[k]) != math.Float64bits(radii[ai]) ||
			s.atomRecs[k] != (atomRec{s.atomPos[ai], s.Mol.Atoms[ai].Charge}) {
			t.Fatalf("item %d (atom %d): record %v radius %v, want the atom's", k, ai, s.atomRecs[k], agg.radii[k])
		}
	}
	classesOf := func(n int) map[int]bool {
		out := map[int]bool{}
		for e := agg.off[n]; e < agg.off[n+1]; e++ {
			out[int(agg.cls[e])] = true
		}
		return out
	}
	for n := 0; n < s.TA.NumNodes(); n++ {
		nd := &s.TA.Nodes[n]
		for e := agg.off[n]; e < agg.off[n+1]; e++ {
			if e > agg.off[n] && agg.cls[e] <= agg.cls[e-1] {
				t.Fatalf("node %d: classes not ascending at entry %d", n, e)
			}
			if int(agg.cls[e]) >= agg.M {
				t.Fatalf("node %d: class %d ≥ M = %d", n, agg.cls[e], agg.M)
			}
		}
		want := map[int]bool{}
		if nd.Leaf {
			for _, ai := range s.TA.ItemsOf(int32(n)) {
				want[agg.class(radii[ai])] = true
			}
		} else {
			for _, c := range nd.Children {
				if c != octree.NoChild {
					for k := range classesOf(int(c)) {
						want[k] = true
					}
				}
			}
		}
		got := classesOf(n)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d classes, want the %d of its atoms or children", n, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("node %d: class %d of its atoms or children missing", n, k)
			}
		}
		for k := 0; k < agg.M; k++ {
			slot := n*agg.M + k
			e := -1
			for x := agg.off[n]; x < agg.off[n+1]; x++ {
				if int(agg.cls[x]) == k {
					e = x
				}
			}
			var q float64
			var dip geom.Vec3
			var quad geom.Mat3
			if e >= 0 {
				q, dip = agg.q[e], agg.dip[e]
				if agg.quad != nil {
					quad = agg.quad[e]
				}
			}
			dq := geom.Mat3{}
			if da.quad != nil {
				dq = da.quad[slot]
			}
			if !sameBits([]float64{q}, []float64{da.hist[slot]}) ||
				!sameBits(vecBits(dip), vecBits(da.dip[slot])) || !sameBits(quad[:], dq[:]) {
				t.Fatalf("node %d class %d (entry %d): sparse (%v, %v, %v) != dense (%v, %v, %v)",
					n, k, e, q, dip, quad, da.hist[slot], da.dip[slot], dq)
			}
		}
	}
	root := 0.0
	for e := agg.off[0]; e < agg.off[1]; e++ {
		root += agg.q[e]
	}
	if math.Abs(root-s.Mol.TotalCharge()) > 1e-9 {
		t.Errorf("root classes carry charge %v, total charge %v", root, s.Mol.TotalCharge())
	}

	factor := s.epolFactor()
	sc := newEpolScratch(agg.M)
	pass := epolPass{u: s, uAgg: agg, v: s, vAgg: agg, factor: factor, sc: sc}
	var walk func(u, v int32)
	walk = func(u, v int32) {
		un, vn := &s.TA.Nodes[u], &s.TA.Nodes[v]
		d := un.Center.Dist(vn.Center)
		if u != v && !un.Leaf && epolFar(d, un.Radius, vn.Radius, factor) {
			dvec := vn.Center.Sub(un.Center)
			gs, gops := farClassSum(agg, u, agg, v, d, dvec, approx, sc, nil)
			ws, wops := denseFarClassSum(da, u, da, v, d, dvec, ord, approx)
			if math.Float64bits(gs) != math.Float64bits(ws) || gops != wops {
				t.Fatalf("far pair (%d, %d): (%v, %d), dense (%v, %d)", u, v, gs, gops, ws, wops)
			}
			return
		}
		if un.Leaf {
			checkNearPair(t, s, u, agg, radii, s, v, agg, radii, u == v, approx)
			return
		}
		for _, c := range un.Children {
			if c != octree.NoChild {
				walk(c, v)
			}
		}
	}
	gsum, wsum := 0.0, 0.0
	for _, v := range s.aLeaves {
		walk(s.TA.Root(), v)
		gs, gops := pass.leaf(v)
		ws, wops := denseApproxEpol(s, s.TA.Root(), v, radii, da, ord, factor)
		if gops != wops {
			t.Fatalf("leaf %d traversal: %d ops, dense %d", v, gops, wops)
		}
		gsum += gs
		wsum += ws
	}
	if rel := relDiff(gsum, wsum); rel > 1e-13 {
		t.Fatalf("whole-tree sum %v, dense %v (rel %.3g)", gsum, wsum, rel)
	}
}

// checkCrossAgainstDense pins the cross pass like checkSparseAgainstDense
// pins the own pass: over aggregates of one shared radius range, every far
// pair of u's tree against each leaf of v matches the dense sweep, every
// exact leaf pair the original-index loop, and each leaf's traversal the
// reference walk built from them, which sums the leaf's far-pair and block
// values in DFS order as the pass does, all bitwise.
func checkCrossAgainstDense(t *testing.T, u *System, uRadii []float64, v *System, vRadii []float64) {
	t.Helper()
	rmin, rmax := math.Inf(1), 0.0
	for _, r := range append(append([]float64(nil), uRadii...), vRadii...) {
		rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
	}
	uAgg := u.buildEpolAggregatesRange(uRadii, rmin, rmax)
	vAgg := v.buildEpolAggregatesRange(vRadii, rmin, rmax)
	ud, vd := buildDenseAggregates(u, uRadii, uAgg), buildDenseAggregates(v, vRadii, vAgg)
	approx := u.Params.Math == ApproxMath
	pass := epolPass{u: u, uAgg: uAgg, v: v, vAgg: vAgg, factor: v.epolFactor(), sc: newEpolScratch(uAgg.M)}
	// walk appends the values of source node a's far pairs and exact
	// blocks against leaf l to vals in DFS order and returns their ops.
	var vals []float64
	var walk func(a, l int32) int64
	walk = func(a, l int32) int64 {
		an, ln := &u.TA.Nodes[a], &v.TA.Nodes[l]
		d := an.Center.Dist(ln.Center)
		if !an.Leaf && epolFar(d, an.Radius, ln.Radius, pass.factor) {
			dvec := ln.Center.Sub(an.Center)
			gs, gops := farClassSum(uAgg, a, vAgg, l, d, dvec, approx, pass.sc, nil)
			ws, wops := denseFarClassSum(ud, a, vd, l, d, dvec, uAgg.order, approx)
			if math.Float64bits(gs) != math.Float64bits(ws) || gops != wops {
				t.Fatalf("cross far pair (%d, %d): (%v, %d), dense (%v, %d)", a, l, gs, gops, ws, wops)
			}
			vals = append(vals, ws)
			return wops
		}
		if an.Leaf {
			checkNearPair(t, u, a, uAgg, uRadii, v, l, vAgg, vRadii, false, approx)
			ws, _ := refNearSum(u, a, uRadii, v, l, vRadii, false, approx)
			vals = append(vals, ws)
			return int64(an.Count()) * int64(ln.Count())
		}
		ops := int64(1)
		for _, c := range an.Children {
			if c != octree.NoChild {
				ops += walk(c, l)
			}
		}
		return ops
	}
	for _, l := range v.aLeaves {
		vals = vals[:0]
		wops := walk(u.TA.Root(), l)
		ws := 0.0
		for _, x := range vals {
			ws += x
		}
		gs, gops := pass.leaf(l)
		if math.Float64bits(gs) != math.Float64bits(ws) || gops != wops {
			t.Fatalf("cross leaf %d: (%v, %d), reference (%v, %d)", l, gs, gops, ws, wops)
		}
	}
}

// withMode returns a copy of s at expansion order ord and math mode m.
func withMode(t *testing.T, s *System, ord int, m MathMode) *System {
	t.Helper()
	acc := DefaultAccuracy()
	acc.Order = ord
	c, err := s.WithAccuracy(acc)
	if err != nil {
		t.Fatal(err)
	}
	c.Params.Math = m
	return c
}

// forEachMode runs check at orders 0/1/2 in both math modes.
func forEachMode(t *testing.T, s *System, check func(t *testing.T, s *System)) {
	for _, ord := range []int{OrderMonopole, OrderDipole, OrderQuadrupole} {
		for _, m := range []MathMode{ExactMath, ApproxMath} {
			check(t, withMode(t, s, ord, m))
		}
	}
}

func TestSparseAggregatesMatchDenseRoster(t *testing.T) {
	maxAtoms := 1200
	if testing.Short() {
		maxAtoms = 600
	}
	roster := molecule.ZDockRoster()
	lig := newTestSystem(t, molecule.ZDockMolecule(roster[0]), surface.DefaultConfig(), DefaultParams())
	ligRadii, _ := lig.BornRadii()
	for _, e := range roster {
		if e.Atoms > maxAtoms {
			break
		}
		t.Run(e.Name, func(t *testing.T) {
			s := newTestSystem(t, molecule.ZDockMolecule(e), surface.DefaultConfig(), DefaultParams())
			radii, _ := s.BornRadii()
			// The ligand docks against the receptor at contact.
			tr := contactPose(s, lig)
			forEachMode(t, s, func(t *testing.T, s *System) {
				checkSparseAgainstDense(t, s, radii, s.buildEpolAggregates(radii))
				l := withMode(t, lig, s.order(), s.Params.Math)
				moved, err := l.moved(tr)
				if err != nil {
					t.Fatal(err)
				}
				checkCrossAgainstDense(t, s, radii, moved, ligRadii)
				checkCrossAgainstDense(t, moved, ligRadii, s, radii)
			})
		})
	}
}

// Radii spread over more than 64 classes fill the second word of the
// class sets, up to the maxEpolClasses cap.
func TestSparseAggregatesWideRadii(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	radii := make([]float64, s.NumAtoms())
	for i := range radii {
		radii[i] = math.Pow(1e12, float64(i)/float64(len(radii)-1))
	}
	forEachMode(t, s, func(t *testing.T, s *System) {
		agg := s.buildEpolAggregates(radii)
		if agg.M != maxEpolClasses {
			t.Fatalf("M = %d, want the cap %d", agg.M, maxEpolClasses)
		}
		root := agg.cls[agg.off[0]:agg.off[1]]
		if len(root) != maxEpolClasses || root[0] != 0 || int(root[len(root)-1]) != maxEpolClasses-1 {
			t.Fatalf("root holds %d classes %v…, want all %d", len(root), root[:min(4, len(root))], maxEpolClasses)
		}
		checkSparseAgainstDense(t, s, radii, agg)
	})
}

// Equal radii put every atom in one class: one entry per node.
func TestSparseAggregatesOneClass(t *testing.T) {
	s := buildSys(t, 400, DefaultParams())
	radii := make([]float64, s.NumAtoms())
	for i := range radii {
		radii[i] = 2
	}
	forEachMode(t, s, func(t *testing.T, s *System) {
		agg := s.buildEpolAggregates(radii)
		if agg.M != 1 || len(agg.q) != s.TA.NumNodes() {
			t.Fatalf("M = %d with %d entries over %d nodes, want 1 per node", agg.M, len(agg.q), s.TA.NumNodes())
		}
		checkSparseAgainstDense(t, s, radii, agg)
	})
}

// Zero-charge atoms occupy their classes with zero moments; a class whose
// charges cancel exactly keeps its entry with q = 0 and a nonzero dipole.
func TestSparseAggregatesZeroAndCancellingCharges(t *testing.T) {
	base := buildSys(t, 500, DefaultParams())
	radii, _ := base.BornRadii()
	// Two atoms of one leaf get opposite charges and a radius of their
	// own, so their class holds nothing else.
	var a, b int32 = -1, -1
	for _, l := range base.aLeaves {
		if items := base.TA.ItemsOf(l); len(items) >= 2 {
			a, b = items[0], items[1]
			break
		}
	}
	if a < 0 {
		t.Fatal("no leaf holds two atoms")
	}
	rmax := 0.0
	for _, r := range radii {
		rmax = math.Max(rmax, r)
	}
	radii[a], radii[b] = 2*rmax, 2*rmax
	mol := &molecule.Molecule{Name: "cancel", Atoms: append([]molecule.Atom(nil), base.Mol.Atoms...)}
	for i := range mol.Atoms {
		if i%3 == 0 {
			mol.Atoms[i].Charge = 0
		}
	}
	mol.Atoms[a].Charge, mol.Atoms[b].Charge = 0.375, -0.375
	s, err := NewSystem(mol, base.Surf, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	forEachMode(t, s, func(t *testing.T, s *System) {
		agg := s.buildEpolAggregates(radii)
		top := uint8(agg.class(radii[a]))
		for e := range agg.q {
			if agg.cls[e] == top && (agg.q[e] != 0 || agg.dip[e] == (geom.Vec3{})) {
				t.Fatalf("entry %d of the cancelling class: q = %v, dipole %v; want q = 0 and a dipole", e, agg.q[e], agg.dip[e])
			}
		}
		checkSparseAgainstDense(t, s, radii, agg)
	})
}
