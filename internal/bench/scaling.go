package bench

import (
	"fmt"
	"math"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/perf"
	"gbpolar/internal/simmpi"
)

// scaleResult extrapolates a scaled-molecule run to the full molecule
// size: per-core operation counts and communication volumes both grow
// (near-)linearly with the atom count for the octree programs, so a run
// on Scale×M atoms is priced as factor× the measured quantities. The
// logarithmic tree-depth growth this drops is < 15% over two decades and
// identical across the compared layouts, so speedup shapes are preserved.
//
// Per-core deviations from the mean are additionally shrunk by √factor:
// a static segment at full size aggregates ~factor× more leaves, so its
// relative cost deviation contracts like a sample mean (at 1% scale a
// segment's lumpiness is ~10× what the full molecule would show, which
// would otherwise hand the work-stealing layouts an artificial
// advantage).
func scaleResult(res *gb.Result, factor float64) *gb.Result {
	out := *res
	out.PerCoreOps = make([]int64, len(res.PerCoreOps))
	mean := 0.0
	for _, ops := range res.PerCoreOps {
		mean += float64(ops)
	}
	mean /= float64(len(res.PerCoreOps))
	shrink := math.Sqrt(factor)
	for i, ops := range res.PerCoreOps {
		adj := mean + (float64(ops)-mean)/shrink
		out.PerCoreOps[i] = int64(adj * factor)
	}
	out.Traffic.P2PBytes = int64(float64(res.Traffic.P2PBytes) * factor)
	out.Traffic.Collectives = make(map[simmpi.CollectiveKind]simmpi.CollectiveStat,
		len(res.Traffic.Collectives))
	for k, st := range res.Traffic.Collectives {
		st.Bytes = int64(float64(st.Bytes) * factor)
		out.Traffic.Collectives[k] = st
	}
	return &out
}

// btvRuns executes the BTV workload (at o.Scale of its 6M atoms) for one
// node count and returns the priced (shape, result) pairs for OCT_MPI
// (12 ranks/node × 1 thread) and OCT_MPI+CILK (2 ranks/node × 6 threads).
type scaledRun struct {
	res      *gb.Result
	shape    perf.RunShape
	priced   perf.Breakdown
	min, max float64
}

func btvRun(o Options, sys *gb.System, fullAtoms int, P, p int, seed int64) (*scaledRun, error) {
	var res *gb.Result
	var err error
	if p == 1 {
		res, err = sys.Run(gb.RunSpec{Processes: P})
	} else {
		res, err = sys.Run(gb.RunSpec{Processes: P, ThreadsPerProcess: p})
	}
	if err != nil {
		return nil, err
	}
	factor := float64(fullAtoms) / float64(sys.NumAtoms())
	scaled := scaleResult(res, factor)
	shape := perf.RunShape{
		Processes:         P,
		ThreadsPerProcess: p,
		DataBytes:         int64(float64(sys.DataBytes()) * factor),
	}
	priced, err := o.Machine.Price(o.Cal, shape, scaled.PerCoreOps, scaled.Traffic)
	if err != nil {
		return nil, err
	}
	minS, maxS, err := o.Machine.PriceNoisy(o.Cal, shape, scaled.PerCoreOps, scaled.Traffic, o.Runs, seed)
	if err != nil {
		return nil, err
	}
	return &scaledRun{res: res, shape: shape, priced: priced, min: minS, max: maxS}, nil
}

// btvNodeCounts is the Fig. 5/6 sweep (×12 cores each).
var btvNodeCounts = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36}

// btvSystem prepares the scaled BTV system once per options.
func btvSystem(o Options) (*gb.System, int, error) {
	fullAtoms := molecule.BTVAtoms
	scaledAtoms := int(o.Scale * float64(fullAtoms))
	if scaledAtoms < 2000 {
		scaledAtoms = 2000
	}
	mol := molecule.ScaledBTV(scaledAtoms)
	entry, err := systemFor(mol, paperParams())
	if err != nil {
		return nil, 0, err
	}
	return entry.sys, fullAtoms, nil
}

// fig5 reproduces Figure 5: speedup w.r.t. one node (T_P/T_12) for
// OCT_MPI and OCT_MPI+CILK on BTV.
func fig5(o Options) (*Table, error) {
	sys, fullAtoms, err := btvSystem(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Fig. 5",
		Title: "Scalability of OCT_MPI and OCT_MPI+CILK: speedup w.r.t. one node (×12 cores), BTV",
		Notes: []string{fmt.Sprintf(
			"BTV run at %d of its %d atoms and extrapolated (DESIGN.md §2); ε = 0.9/0.9",
			sys.NumAtoms(), fullAtoms)},
		Header: []string{"Nodes", "Cores", "T OCT_MPI", "T OCT_MPI+CILK", "Speedup OCT_MPI", "Speedup OCT_MPI+CILK"},
	}
	var base struct{ mpi, hyb float64 }
	for _, nodes := range btvNodeCounts {
		mpiRun, err := btvRun(o, sys, fullAtoms, 12*nodes, 1, int64(nodes))
		if err != nil {
			return nil, err
		}
		hybRun, err := btvRun(o, sys, fullAtoms, 2*nodes, 6, int64(nodes)+1000)
		if err != nil {
			return nil, err
		}
		if nodes == 1 {
			base.mpi = mpiRun.priced.TotalSeconds
			base.hyb = hybRun.priced.TotalSeconds
		}
		t.AddRow(fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", 12*nodes),
			fmtSeconds(mpiRun.priced.TotalSeconds), fmtSeconds(hybRun.priced.TotalSeconds),
			fmt.Sprintf("%.2f", base.mpi/mpiRun.priced.TotalSeconds),
			fmt.Sprintf("%.2f", base.hyb/hybRun.priced.TotalSeconds))
	}
	return t, nil
}

// fig6 reproduces Figure 6: the min/max running-time envelopes over
// o.Runs noisy samples versus the core count, and reports the core count
// where the hybrid minimum first beats the distributed minimum (the
// paper observes ≈180 cores).
func fig6(o Options) (*Table, error) {
	sys, fullAtoms, err := btvSystem(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Fig. 6",
		Title: "Running time envelopes (min/max over noisy runs) vs cores, BTV",
		Notes: []string{fmt.Sprintf("BTV at %d atoms, extrapolated; %d samples per point",
			sys.NumAtoms(), o.Runs)},
		Header: []string{"Cores", "OCT_MPI min", "OCT_MPI max", "OCT_MPI+CILK min", "OCT_MPI+CILK max"},
	}
	crossover := 0
	for _, nodes := range btvNodeCounts {
		mpiRun, err := btvRun(o, sys, fullAtoms, 12*nodes, 1, int64(nodes))
		if err != nil {
			return nil, err
		}
		hybRun, err := btvRun(o, sys, fullAtoms, 2*nodes, 6, int64(nodes)+1000)
		if err != nil {
			return nil, err
		}
		if crossover == 0 && hybRun.min < mpiRun.min {
			crossover = 12 * nodes
		}
		t.AddRow(fmt.Sprintf("%d", 12*nodes),
			fmtSeconds(mpiRun.min), fmtSeconds(mpiRun.max),
			fmtSeconds(hybRun.min), fmtSeconds(hybRun.max))
	}
	if crossover > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"hybrid min first beats distributed min at %d cores (paper: ≈180)", crossover))
	} else {
		t.Notes = append(t.Notes, "no hybrid/distributed min crossover within the sweep")
	}
	return t, nil
}

// memoryExp reproduces the §V-B memory claim: per-node memory of OCT_MPI
// (12 single-thread ranks per node) versus OCT_MPI+CILK (2×6) on BTV.
func memoryExp(o Options) (*Table, error) {
	sys, fullAtoms, err := btvSystem(o)
	if err != nil {
		return nil, err
	}
	factor := float64(fullAtoms) / float64(sys.NumAtoms())
	data := int64(float64(sys.DataBytes()) * factor)
	mpiShape := perf.RunShape{Processes: 12, ThreadsPerProcess: 1, DataBytes: data}
	hybShape := perf.RunShape{Processes: 2, ThreadsPerProcess: 6, DataBytes: data}
	ops := []int64{1}
	mpi, err := o.Machine.Price(o.Cal, mpiShape, ops, simmpi.Stats{})
	if err != nil {
		return nil, err
	}
	hyb, err := o.Machine.Price(o.Cal, hybShape, ops, simmpi.Stats{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "§V-B memory",
		Title:  "Per-node memory on BTV: data replication of distributed vs hybrid",
		Notes:  []string{"paper: 8.2 GB vs 1.4 GB (5.86×) on one 12-core node"},
		Header: []string{"Program", "Ranks/node × threads", "Memory/node", "Ratio"},
	}
	ratio := float64(mpi.MemPerNodeBytes) / float64(hyb.MemPerNodeBytes)
	t.AddRow("OCT_MPI", "12 × 1", fmt.Sprintf("%.2f GB", gbOf(mpi.MemPerNodeBytes)), fmt.Sprintf("%.2f", ratio))
	t.AddRow("OCT_MPI+CILK", "2 × 6", fmt.Sprintf("%.2f GB", gbOf(hyb.MemPerNodeBytes)), "1.00")
	return t, nil
}

func gbOf(b int64) float64 { return float64(b) / float64(1<<30) }

// sanity guard: math import used by other files in this package.
var _ = math.Abs
