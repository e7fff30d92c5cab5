package gb

import (
	"math"
	"sync"

	"gbpolar/internal/geom"
	"gbpolar/internal/surface"
)

// The exact-math inner loops of the traversals run four lanes wide where
// the host has AVX2 and FMA (kernels_amd64.s, DESIGN.md §16):
//
//   - the Born near field: each lane is one atom summing its quadrature
//     leaf's points in order, so every atom still gets exactly one sum
//     per quadrature leaf (flushIntegrals);
//   - the energy near field: the pass records a target leaf's exact
//     blocks and evaluates their pair terms in chunks, with lanes across
//     blocks (epolPass.flushNear);
//   - the far kernel table of farClassSum: lanes over the class sums.
//
// Each lane does the Go expression's IEEE operations in the Go order, and
// exp is a lane-wise replica of math.Exp's FMA path, so the vector path
// returns the Go loops' bits. The Go loops stay: other hosts run them,
// ApproxMath runs them, lanes outside the replica's range fall back to
// them, and the tests use them as the oracle.

// cpuFeatures are the host properties the kernels need.
type cpuFeatures struct {
	avx2, fma, osYMM bool
}

// hostCPU is the host's feature set, read once at start-up.
var hostCPU = detectCPU()

// vecKernels selects the vector kernels. It is set once at start-up and
// only the oracle tests change it, to run the Go loops on the same host.
var vecKernels = hostCPU.avx2 && hostCPU.fma && hostCPU.osYMM && expProbe()

// expProbeBits are exponents on which math.Exp's FMA and non-FMA paths
// round differently, followed by edge values of the replica's range. The
// replica is used only if it matches math.Exp on all of them, so a Go
// runtime on its non-FMA path (GODEBUG=cpu.fma=off, or a changed
// archExp) keeps the Go loops.
var expProbeBits = [...]uint64{
	0xc03045d62b6f6c73, 0xc069f0840397c68e, 0xc0635789b7b76e08, 0xc027cad70ce12290,
	0xc06ecb3eb8514418, 0xc04e4635e1b88f53, 0xc01d934f374fdcb5, 0xc060923f67852917,
	0x0000000000000000, 0x8000000000000000, 0x8000000000000001, 0xc0861fffffffffff,
}

// expProbe reports whether the lane-wise exp replica returns math.Exp's
// bits on expProbeBits.
func expProbe() bool {
	for i := 0; i < len(expProbeBits); i += 4 {
		var x, got [4]float64
		for l := range x {
			x[l] = math.Float64frombits(expProbeBits[i+l])
		}
		if expAVX(&x, &got) != 0xf {
			return false
		}
		for l := range x {
			if math.Float64bits(got[l]) != math.Float64bits(math.Exp(x[l])) {
				return false
			}
		}
	}
	return true
}

// kernelScratch is one driver worker's buffers for the vector kernels:
// the Born gather list and the energy near-field state.
type kernelScratch struct {
	born bornScratch
	near nearScratch
}

// kernelScratchPool lends the drivers' workers their kernel buffers for
// the length of a run. A process that solves many times, a serving daemon
// or the tuner, then reuses them instead of growing them anew per run.
// Nothing a kernel reads from them outlives the call that wrote it.
var kernelScratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// getKernelScratch borrows a worker's kernel buffers with empty lists: a
// run that panicked mid-traversal may have returned them unflushed.
func getKernelScratch() *kernelScratch {
	k := kernelScratchPool.Get().(*kernelScratch)
	k.born.pos = k.born.pos[:0]
	k.near.vals, k.near.far, k.near.pending = k.near.vals[:0], k.near.far[:0], k.near.pending[:0]
	k.near.nLanes = 0
	return k
}

// ---- Born near field ----------------------------------------------------

// bornScratch is one worker's gather list for the Born near field: the
// T_A item positions of the atoms the traversal of one quadrature leaf
// reached as exact, and the kernel's lane buffers. It is reused across
// leaves and never encoded.
type bornScratch struct {
	pos   []int32
	lanes []float64 // per group of four atoms: x[4], y[4], z[4]
	sums  []float64
	flags []uint8
}

// bornAtomSum is the Born near-field loop: one atom's exact surface
// integral over the quadrature points pts[qItems], summed in order.
func bornAtomSum(pa geom.Vec3, pts []surface.QPoint, qItems []int32, r4Form bool) float64 {
	sum := 0.0
	for _, qi := range qItems {
		qp := &pts[qi]
		dv := qp.Pos.Sub(pa)
		r2 := dv.Norm2()
		rp := r2 * r2
		if !r4Form {
			rp *= r2
		}
		sum += qp.Weight * dv.Dot(qp.Normal) / rp
	}
	return sum
}

// flushIntegrals adds the exact integrals of the gathered atoms against
// quadrature leaf q into acc and empties the gather list. Each gathered
// atom gets one sum: from the lanes with the vector kernels, from the Go
// loop bornAtomSum without them.
func (s *System) flushIntegrals(q int32, acc *bornAccum) {
	sc := acc.scratch
	if sc == nil || len(sc.pos) == 0 {
		return
	}
	pts, qItems, r4Form := s.Surf.Points, s.TQ.ItemsOf(q), s.Params.Integral == IntegralR4
	if vecKernels {
		sums := s.bornLanes(sc, pts, qItems, r4Form)
		for i, p := range sc.pos {
			acc.atomS[s.TA.Items[p]] += sums[i]
		}
	} else {
		for _, p := range sc.pos {
			acc.atomS[s.TA.Items[p]] += bornAtomSum(s.atomRecs[p].pos, pts, qItems, r4Form)
		}
	}
	sc.pos = sc.pos[:0]
}

// bornLanes returns the exact integrals of the gathered atoms against the
// quadrature points pts[qItems], in gather order, four atoms per lane
// group.
func (s *System) bornLanes(sc *bornScratch, pts []surface.QPoint, qItems []int32, r4Form bool) []float64 {
	n := len(sc.pos)
	groups := (n + 3) / 4
	sc.lanes = growFloats(sc.lanes, 12*groups, 12*chunkGroups)
	sc.sums = growFloats(sc.sums, 4*groups, 4*chunkGroups)
	sc.flags = growBytes(sc.flags, groups, chunkGroups)
	for i := 0; i < 4*groups; i++ {
		// Padding lanes repeat the last atom; their sums are dropped.
		pa := s.atomRecs[sc.pos[min(i, n-1)]].pos
		g := sc.lanes[12*(i/4):]
		g[i%4], g[4+i%4], g[8+i%4] = pa.X, pa.Y, pa.Z
	}
	var p0 *surface.QPoint
	var i0 *int32
	if len(qItems) > 0 {
		p0, i0 = &pts[0], &qItems[0]
	}
	bornNearAVX(&sc.lanes[0], groups, p0, i0, len(qItems), !r4Form, &sc.sums[0], &sc.flags[0])
	for i, p := range sc.pos {
		if sc.flags[i/4]&(1<<(i%4)) != 0 {
			// A NaN sum: the Go loop gives its exact bits.
			sc.sums[i] = bornAtomSum(s.atomRecs[p].pos, pts, qItems, r4Form)
		}
	}
	return sc.sums[:n]
}

// ---- Energy near field --------------------------------------------------

// nearScratch is one worker's state for the current target leaf of the
// energy pass: its tape, the value of every far pair and exact block in
// DFS order, with the far pairs still to evaluate, the blocks whose atoms
// fill the kernel's next chunk, and the kernel's buffers.
type nearScratch struct {
	vals    []float64 // per far pair and evaluated block, in DFS order
	far     []farPair
	pending []pendingBlock
	nLanes  int       // source atoms of the pending blocks
	lanes   []float64 // per group of four atoms: x[4], y[4], z[4], q[4], R[4]
	vb      []float64 // per target atom: x, y, z, q, R
	terms   []float64
	flags   []uint8
}

// farPair is a far source node u at center distance d whose class sum
// goes to vals[slot].
type farPair struct {
	slot int
	u    int32
	d    float64
}

// pendingBlock is an exact block waiting for its chunk: source leaf u's
// value, ×weight, goes to vals[idx].
type pendingBlock struct {
	idx    int
	u      int32
	weight float64
}

// minVecPairs is the fewest pairs a chunk sends to the vector kernel:
// below two full lane groups the gather costs more than the lanes save,
// so the Go loop runs.
const minVecPairs = 8

// pendNear adds source leaf u's block to the pending chunk, evaluating the
// chunk first if u's atoms would overflow it.
func (p *epolPass) pendNear(u, v int32, weight float64) {
	ns := p.sc.near
	c := p.u.TA.Nodes[u].Count()
	if ns.nLanes > 0 && ns.nLanes+c > chunkAtoms {
		p.flushNear(v)
	}
	ns.pending = append(ns.pending, pendingBlock{idx: len(ns.vals), u: u, weight: weight})
	ns.vals = append(ns.vals, 0)
	ns.nLanes += c
}

// chunkAtoms is how many atoms a kernel call gathers at most, unless one
// leaf alone holds more: the energy kernel's chunk of source atoms and the
// Born gather list that exactIntegrals flushes. It is enough to amortize
// the call, and few enough that the lane and term buffers stay a few
// kilobytes whatever the molecule.
const chunkAtoms = 128

// chunkGroups is the lane groups of a full chunk.
const chunkGroups = chunkAtoms / 4

// flushNear evaluates the pending blocks against target leaf v and stores
// their values. It alone chooses the kernel path: without the vector
// kernels, in Approx math, or for a chunk too small to fill the lanes,
// each block runs nearSum; otherwise the blocks' atoms fill lane groups in
// block order, the kernel computes the pair terms, and each block's rows
// are summed in nearSum's a-major order.
func (p *epolPass) flushNear(v int32) {
	ns := p.sc.near
	n := ns.nLanes
	if n == 0 {
		return
	}
	vr, vR := p.v.atomsOf(&p.v.TA.Nodes[v], p.vAgg)
	nv := len(vr)
	if approx := p.v.Params.Math == ApproxMath; !vecKernels || approx || n*nv < minVecPairs {
		for _, b := range ns.pending {
			ur, uR := p.u.atomsOf(&p.u.TA.Nodes[b.u], p.uAgg)
			sum, _ := nearSum(ur, uR, vr, vR, false, approx)
			ns.vals[b.idx] = b.weight * sum
		}
	} else {
		groups := (n + 3) / 4
		ns.reserve(groups, nv, p.v.Params.LeafAtoms)
		lane := 0
		for _, b := range ns.pending {
			un := &p.u.TA.Nodes[b.u]
			for a := un.Start; a < un.End; a++ {
				setLane(ns.lanes, lane, &p.u.atomRecs[a], p.uAgg.radii[a])
				lane++
			}
		}
		// Padding lanes repeat the last atom; their terms are never read.
		for ; lane < 4*groups; lane++ {
			setLaneFrom(ns.lanes, lane, n-1)
		}
		ns.runTerms(vr, vR, n, groups)
		off := 0
		for _, b := range ns.pending {
			// u's rows of terms, a-major as nearSum sums them.
			c := p.u.TA.Nodes[b.u].Count()
			sum := 0.0
			for _, t := range ns.terms[off*nv : (off+c)*nv] {
				sum += t
			}
			ns.vals[b.idx] = b.weight * sum
			off += c
		}
	}
	ns.pending = ns.pending[:0]
	ns.nLanes = 0
}

// reserve sizes the energy kernel's buffers for groups lane groups
// against nv target atoms, and on first use for a full chunk against a
// full leaf of leafAtoms.
func (ns *nearScratch) reserve(groups, nv, leafAtoms int) {
	nvMax := max(nv, leafAtoms)
	ns.lanes = growFloats(ns.lanes, 20*groups, 20*chunkGroups)
	ns.vb = growFloats(ns.vb, 5*nv, 5*nvMax)
	ns.terms = growFloats(ns.terms, 4*groups*nv, 4*chunkGroups*nvMax)
	ns.flags = growBytes(ns.flags, groups*nv, chunkGroups*nvMax)
}

// setLane writes atom (r, radius) into lane i of the energy lane groups.
func setLane(lanes []float64, i int, r *atomRec, radius float64) {
	g, l := lanes[20*(i/4):], i%4
	g[l], g[4+l], g[8+l], g[12+l], g[16+l] = r.pos.X, r.pos.Y, r.pos.Z, r.q, radius
}

// setLaneFrom copies lane j of the energy lane groups into lane i.
func setLaneFrom(lanes []float64, i, j int) {
	g, l := lanes[20*(i/4):], i%4
	h, m := lanes[20*(j/4):], j%4
	for f := 0; f < 20; f += 4 {
		g[f+l] = h[f+m]
	}
}

// runTerms evaluates the pair terms of the n atoms in ns.lanes against
// the target atoms vr into ns.terms (row a: source atom a, one term per
// target atom), and recomputes every lane the kernel flags with nearSum's
// expression.
func (ns *nearScratch) runTerms(vr []atomRec, vR []float64, n, groups int) {
	nv := len(vr)
	for b := range vr {
		t := ns.vb[5*b:]
		t[0], t[1], t[2], t[3], t[4] = vr[b].pos.X, vr[b].pos.Y, vr[b].pos.Z, vr[b].q, vR[b]
	}
	pairTermsAVX(&ns.lanes[0], groups, &ns.vb[0], nv, &ns.terms[0], &ns.flags[0])
	for k, f := range ns.flags {
		if f == 0 {
			continue
		}
		g, b := k/nv, k%nv
		lg := ns.lanes[20*g:]
		for l := 0; l < 4 && 4*g+l < n; l++ {
			if f&(1<<l) != 0 {
				pi := geom.V(lg[l], lg[4+l], lg[8+l])
				qi, ri := lg[12+l], lg[16+l]
				r2 := pi.Dist2(vr[b].pos)
				ns.terms[(4*g+l)*nv+b] = qi * vr[b].q * (1 / fGB(r2, ri*vR[b]))
			}
		}
	}
}

// ---- Far kernel table ---------------------------------------------------

// farTable fills e = exp(−r2/(4t)) and g = 1/√(r2 + t·e) for the class
// sums t = pw[k] into g[k] with exact math.
func farTable(pw []float64, r2 float64, g []farKernel) {
	g = g[:len(pw)]
	if vecKernels && len(pw) > 0 && !farTableAVX(&pw[0], len(pw), r2, &g[0]) {
		return
	}
	for k, t := range pw {
		e := math.Exp(-r2 / (4 * t))
		g[k].e, g[k].invF = e, 1/math.Sqrt(r2+t*e)
	}
}

// growFloats and growBytes return buf resized to n. They reallocate only
// when they must, and then to at least atLeast, the size of a full chunk,
// so a scratch buffer is allocated once unless a leaf outgrows it.
func growFloats(buf []float64, n, atLeast int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, atLeast))
	}
	return buf[:n]
}

func growBytes(buf []uint8, n, atLeast int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n, max(n, atLeast))
	}
	return buf[:n]
}
