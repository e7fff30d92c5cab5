package bench

import (
	"fmt"
	"math"

	"gbpolar/internal/baselines"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/perf"
)

// fig11 reproduces the Figure 11 table: the Cucumber Mosaic Virus shell
// (509,640 atoms) on 12 and 144 cores — times, speedups w.r.t. Amber,
// energies and % difference with the naïve reference.
//
// The run executes at Scale × the full size (energies and % differences
// are exact at the realized size); times are extrapolated to the full
// atom count — linearly for the near-linear octree programs and
// quadratically for the comparators' O(M²) energy phase (DESIGN.md §2).
func fig11(o Options) (*Table, error) {
	fullAtoms := molecule.CMVAtoms
	scaledAtoms := int(o.Scale * float64(fullAtoms) * 2)
	if scaledAtoms < 2000 {
		scaledAtoms = 2000
	}
	if scaledAtoms > fullAtoms {
		scaledAtoms = fullAtoms
	}
	mol := molecule.ScaledCMV(scaledAtoms)
	entry, err := systemFor(mol, paperParams())
	if err != nil {
		return nil, err
	}
	sys := entry.sys
	factor := float64(fullAtoms) / float64(scaledAtoms)

	// --- octree programs ---------------------------------------------
	cilk, err := sys.Run(gb.RunSpec{ThreadsPerProcess: 12})
	if err != nil {
		return nil, err
	}
	mpi12, err := sys.Run(gb.RunSpec{Processes: 12})
	if err != nil {
		return nil, err
	}
	hyb12, err := sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 6})
	if err != nil {
		return nil, err
	}
	mpi144, err := sys.Run(gb.RunSpec{Processes: 144})
	if err != nil {
		return nil, err
	}
	hyb144, err := sys.Run(gb.RunSpec{Processes: 24, ThreadsPerProcess: 6})
	if err != nil {
		return nil, err
	}
	priceAt := func(res *gb.Result) (float64, error) {
		scaled := scaleResult(res, factor)
		shape := perf.RunShape{
			Processes:         res.Processes,
			ThreadsPerProcess: res.ThreadsPerProcess,
			DataBytes:         int64(float64(sys.DataBytes()) * factor),
		}
		b, err := o.Machine.Price(o.Cal, shape, scaled.PerCoreOps, scaled.Traffic)
		if err != nil {
			return 0, err
		}
		return b.TotalSeconds, nil
	}

	// --- comparators ----------------------------------------------------
	naive := entry.naiveResult()
	// Naïve full-size time: Born phase scales ~linearly in atoms (surface
	// points ∝ atoms), the energy phase quadratically.
	naiveBornOps := int64(sys.NumAtoms()) * int64(sys.NumQPoints())
	naiveEpolOps := naive.Ops - naiveBornOps
	naiveFullOps := int64(float64(naiveBornOps)*factor*factor) + // m and M both grow
		int64(float64(naiveEpolOps)*factor*factor)
	_ = naiveFullOps

	amber, err := baselines.SpecByName("Amber")
	if err != nil {
		return nil, err
	}
	amberRes, err := amber.Run(mol, gb.DefaultSolventDielectric)
	if err != nil {
		return nil, err
	}
	// Amber full-size ops: Born phase (cutoff list) linear, energy phase
	// quadratic.
	amberBornOps := amberRes.Ops - quadraticOps(scaledAtoms)
	amberFullOps := int64(float64(amberBornOps)*factor) + quadraticOps(fullAtoms)
	amber12 := amber.StartupSeconds + float64(amberFullOps)/
		(o.Machine.OpsPerSecond*amber.RateFactor*12*amber.ParallelEfficiency)
	amber144 := amber.StartupSeconds + float64(amberFullOps)/
		(o.Machine.OpsPerSecond*amber.RateFactor*144*amber.ParallelEfficiency)

	t := &Table{
		ID:    "Fig. 11",
		Title: "Scalability on a large molecule (Cucumber Mosaic Virus shell)",
		Notes: []string{
			fmt.Sprintf("CMV run at %d of its %d atoms; energies/%%diff at the realized size, times extrapolated to full size", scaledAtoms, fullAtoms),
			"paper: OCT_CILK 12.5s; Amber 39min/3.3min; OCT_MPI+CILK 4.8s/0.61s; OCT_MPI 4.5s/0.46s; speedups 488/520 (12 cores), 325/430 (144); diffs −0.95/2.2/−0.07/−0.07%",
		},
		Header: []string{"Program", "12 cores", "144 cores", "Speedup vs Amber (12)", "Speedup vs Amber (144)", "Epol (kcal/mol)", "% diff w/ naïve"},
	}

	addOct := func(name string, r12, r144 *gb.Result) error {
		t12, err := priceAt(r12)
		if err != nil {
			return err
		}
		c144 := "X"
		s144 := "X"
		if r144 != nil {
			t144, err := priceAt(r144)
			if err != nil {
				return err
			}
			c144 = fmtSeconds(t144)
			s144 = fmt.Sprintf("%.0f", amber144/t144)
		}
		diff := 100 * (r12.Epol - naive.Energy) / math.Abs(naive.Energy)
		t.AddRow(name, fmtSeconds(t12), c144,
			fmt.Sprintf("%.0f", amber12/t12), s144,
			fmt.Sprintf("%.4g", r12.Epol), fmt.Sprintf("%+.2f", diff))
		return nil
	}
	if err := addOct("OCT_CILK", cilk, nil); err != nil {
		return nil, err
	}
	amberDiff := 100 * (amberRes.Energy - naive.Energy) / math.Abs(naive.Energy)
	t.AddRow("Amber", fmtSeconds(amber12), fmtSeconds(amber144), "1", "1",
		fmt.Sprintf("%.4g", amberRes.Energy), fmt.Sprintf("%+.2f", amberDiff))
	if err := addOct("OCT_MPI+CILK", hyb12, hyb144); err != nil {
		return nil, err
	}
	if err := addOct("OCT_MPI", mpi12, mpi144); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Tinker and GBr6 run out of memory on CMV (pair list would need %.1f GB each)",
		float64(quadraticOps(fullAtoms))*4/float64(1<<30)))
	return t, nil
}

func quadraticOps(n int) int64 {
	return int64(n) * int64(n+1) / 2
}
