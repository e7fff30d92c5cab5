// Hybrid vs distributed: run the same molecule through OCT_CILK, OCT_MPI
// and OCT_MPI+CILK layouts and print what each costs on the modeled
// cluster — the §IV-B comparison in miniature (memory replication,
// communication, scheduling overheads).
//
// Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
)

func main() {
	mol := molecule.ScaledCMV(20000) // a capsid-shell slice
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	machine := perf.Lonestar4()
	cal := perf.DefaultCalibration()

	fmt.Printf("workload: %s, %d atoms, %d q-points, %.1f MB working set\n\n",
		mol.Name, sys.NumAtoms(), sys.NumQPoints(), float64(sys.DataBytes())/(1<<20))
	fmt.Println("layout            Epol (kcal/mol)   comp      comm      mem/node   steals")

	show := func(name string, res *gb.Result) {
		shape := perf.RunShape{
			Processes:         res.Processes,
			ThreadsPerProcess: res.ThreadsPerProcess,
			DataBytes:         sys.DataBytes(),
		}
		b, err := machine.Price(cal, shape, res.PerCoreOps, res.Traffic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s  %14.2f   %-8s  %-8s  %6.1f MB   %d\n",
			name, res.Epol,
			fmt.Sprintf("%.1fms", b.CompSeconds*1e3),
			fmt.Sprintf("%.1fms", b.CommSeconds*1e3),
			float64(b.MemPerNodeBytes)/(1<<20), res.Steals)
	}

	cilk, err := sys.Run(gb.RunSpec{ThreadsPerProcess: 12})
	if err != nil {
		log.Fatal(err)
	}
	show("OCT_CILK 1×12", cilk)

	mpi, err := sys.Run(gb.RunSpec{Processes: 12})
	if err != nil {
		log.Fatal(err)
	}
	show("OCT_MPI 12×1", mpi)

	hyb, err := sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 6})
	if err != nil {
		log.Fatal(err)
	}
	show("OCT_MPI+CILK 2×6", hyb)

	fmt.Println("\nsame energy from all three layouts; the hybrid holds 1/6 the")
	fmt.Println("memory of the pure-MPI run and pays less synchronization skew.")
}
