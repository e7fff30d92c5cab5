// Epsilon sweep: the paper's space-independent speed–accuracy tradeoff
// (§II): sweep the approximation parameters and watch error and work move
// in opposite directions while the octree memory stays constant.
//
// Run with:
//
//	go run ./examples/epsilon_sweep
package main

import (
	"fmt"
	"log"
	"math"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

func main() {
	mol := molecule.Exactly(molecule.Globule("sweep", 5000, 3), 5000, 3)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Exact reference, computed once.
	ref, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	radii, _ := ref.NaiveBornRadiiR6()
	exact, exactOps := ref.NaiveEpol(radii)
	fmt.Printf("molecule %s: %d atoms; exact Epol = %.2f kcal/mol (%d pair evals)\n\n",
		mol.Name, mol.NumAtoms(), exact, exactOps)

	fmt.Println("  ε     Epol (kcal/mol)   error %   interactions   octree bytes")
	for _, eps := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.2, 1.5} {
		params := gb.DefaultParams()
		params.Accuracy.EpsBorn = eps
		params.Accuracy.EpsEpol = eps
		sys, err := gb.NewSystem(mol, surf, params)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(gb.RunSpec{})
		if err != nil {
			log.Fatal(err)
		}
		// The octree itself is parameter-independent: same memory at
		// every ε (§II, the contrast with cutoff-sized nonbonded lists).
		treeBytes := sys.TA.MemoryBytes() + sys.TQ.MemoryBytes()
		fmt.Printf("%5.2f   %12.2f   %8.3f   %12d   %12d\n",
			eps, res.Epol, 100*math.Abs(res.Epol-exact)/math.Abs(exact),
			res.TotalOps(), treeBytes)
	}
	fmt.Println("\nerror grows with ε, work shrinks, octree memory is constant.")
}
