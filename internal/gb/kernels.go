package gb

import (
	"math"
	"math/bits"
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
//     blocks, and each lane sums one source atom's row against the target
//     leaf, with lanes across blocks (epolPass.flushNear);
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
	k.near.vals, k.near.far, k.near.pending, k.near.pos = k.near.vals[:0], k.near.far[:0], k.near.pending[:0], k.near.pos[:0]
	return k
}

// ---- Born near field ----------------------------------------------------

// bornScratch is one worker's gather list for the Born near field: the
// T_A item positions of the atoms the traversal of one quadrature leaf
// reached as exact, and the kernel's sums and flags. It is reused across
// leaves and never encoded.
type bornScratch struct {
	pos   []int32
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
// quadrature points pts[qItems], in gather order. The kernel loads each
// lane group's atoms from atomRecs by their positions.
func (s *System) bornLanes(sc *bornScratch, pts []surface.QPoint, qItems []int32, r4Form bool) []float64 {
	n := len(sc.pos)
	pos, groups := padLanes(sc.pos)
	sc.pos = pos[:n]
	sc.sums = growFloats(sc.sums, 4*groups, 4*chunkGroups)
	sc.flags = growBytes(sc.flags, groups, chunkGroups)
	var p0 *surface.QPoint
	var i0 *int32
	if len(qItems) > 0 {
		p0, i0 = &pts[0], &qItems[0]
	}
	bornNearAVX(&s.atomRecs[0], &pos[0], groups, p0, i0, len(qItems), !r4Form, &sc.sums[0], &sc.flags[0])
	forFlagged(sc.flags, n, func(i int) {
		// A NaN sum: the Go loop gives its exact bits.
		sc.sums[i] = bornAtomSum(s.atomRecs[pos[i]].pos, pts, qItems, r4Form)
	})
	return sc.sums[:n]
}

// padLanes pads a gather list of T_A item positions to whole lane groups
// by repeating its last position, and returns it with its group count.
// The padding lanes' results are never read.
func padLanes(pos []int32) ([]int32, int) {
	groups := (len(pos) + 3) / 4
	for len(pos) < 4*groups {
		pos = append(pos, pos[len(pos)-1])
	}
	return pos, groups
}

// forFlagged calls fix with every lane below n that the kernel flagged,
// in order.
func forFlagged(flags []uint8, n int, fix func(lane int)) {
	for g, f := range flags {
		for ; f != 0; f &= f - 1 {
			if i := 4*g + bits.TrailingZeros8(f); i < n {
				fix(i)
			}
		}
	}
}

// ---- Energy near field --------------------------------------------------

// nearScratch is one worker's state for the current target leaf of the
// energy pass: its tape, the value of every far pair and exact block in
// DFS order, with the far pairs still to evaluate, the blocks whose atoms
// fill the kernel's next chunk, and the kernel's gather list, row sums
// and flags.
type nearScratch struct {
	vals    []float64 // per far pair and evaluated block, in DFS order
	far     []farPair
	pending []pendingBlock
	pos     []int32   // the pending blocks' T_A item positions, in order
	rows    []float64 // per source atom: its row sum against the target leaf
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
	un := &p.u.TA.Nodes[u]
	if len(ns.pos) > 0 && len(ns.pos)+un.Count() > chunkAtoms {
		p.flushNear(v)
	}
	ns.pending = append(ns.pending, pendingBlock{idx: len(ns.vals), u: u, weight: weight})
	ns.vals = append(ns.vals, 0)
	for a := un.Start; a < un.End; a++ {
		ns.pos = append(ns.pos, a)
	}
}

// chunkAtoms is how many atoms a kernel call gathers at most, unless one
// leaf alone holds more: the energy kernel's chunk of source atoms and the
// Born gather list that exactIntegrals flushes. It is enough to amortize
// the call, and few enough that the kernels' buffers stay a few kilobytes
// whatever the molecule.
const chunkAtoms = 128

// chunkGroups is the lane groups of a full chunk.
const chunkGroups = chunkAtoms / 4

// flushNear evaluates the pending blocks against target leaf v and stores
// their values. It alone chooses the kernel path: without the vector
// kernels, in Approx math, or for a chunk too small to fill the lanes,
// each block runs nearSum; otherwise the kernel returns one row sum per
// source atom of the chunk. Either way a block's value is its rows added
// in order, as nearSum adds them, times the block's weight.
func (p *epolPass) flushNear(v int32) {
	ns := p.sc.near
	n := len(ns.pos)
	if n == 0 {
		return
	}
	vr, vR := p.v.atomsOf(&p.v.TA.Nodes[v], p.vAgg)
	if approx := p.v.Params.Math == ApproxMath; !vecKernels || approx || n*len(vr) < minVecPairs {
		for _, b := range ns.pending {
			ur, uR := p.u.atomsOf(&p.u.TA.Nodes[b.u], p.uAgg)
			sum, _ := nearSum(ur, uR, vr, vR, false, approx)
			ns.vals[b.idx] = b.weight * sum
		}
	} else {
		rows := ns.nearRows(p.u.atomRecs, p.uAgg.radii, vr, vR)
		for _, b := range ns.pending {
			c := p.u.TA.Nodes[b.u].Count()
			sum := 0.0
			for _, r := range rows[:c] {
				sum += r
			}
			ns.vals[b.idx] = b.weight * sum
			rows = rows[c:]
		}
	}
	ns.pending, ns.pos = ns.pending[:0], ns.pos[:0]
}

// nearRows returns the row sums of the source atoms at T_A item positions
// ns.pos, records recs and Born radii radii (both in item order), against
// the target atoms vr with radii vR: one per position, in order, each
// nearRow's value. The kernel gathers its lanes itself; a row with a lane
// it flags is recomputed whole by nearRow.
func (ns *nearScratch) nearRows(recs []atomRec, radii []float64, vr []atomRec, vR []float64) []float64 {
	n := len(ns.pos)
	pos, groups := padLanes(ns.pos)
	ns.pos = pos[:n]
	ns.rows = growFloats(ns.rows, 4*groups, 4*chunkGroups)
	ns.flags = growBytes(ns.flags, groups, chunkGroups)
	nearRowsAVX(&recs[0], &radii[0], &pos[0], groups, &vr[0], &vR[0], len(vr), &ns.rows[0], &ns.flags[0])
	forFlagged(ns.flags, n, func(i int) {
		a := pos[i]
		ns.rows[i] = nearRow(recs[a].pos, recs[a].q, radii[a], vr, vR)
	})
	return ns.rows[:n]
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
