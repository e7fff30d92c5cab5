// Command gbsurf inspects and exports molecular surfaces: quadrature
// statistics, per-atom SASA tables, and point clouds (XYZ / PLY) for
// molecular viewers.
//
// Usage:
//
//	gbsurf -in mol.pqr                      # statistics
//	gbsurf -in mol.pqr -ply surface.ply     # export with normals+weights
//	gbsurf -synthetic globule -atoms 5000 -sasa sasa.txt
//	gbsurf -in mol.pqr -level 2 -probe 1.4  # denser sampling
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gbpolar/internal/molecule"
	"gbpolar/internal/stats"
	"gbpolar/internal/surface"
)

// surfaceTension is the GB/SA surface-tension coefficient γ in
// kcal/(mol·Å²) (the 5.4 cal convention of Still-style SA terms): the
// nonpolar solvation term γ·SASA printed next to the surface statistics.
const surfaceTension = 0.0054

func main() {
	var (
		in      = flag.String("in", "", "input molecule (.pqr or .xyzrq)")
		synth   = flag.String("synthetic", "", "synthetic workload: globule | shell | helix")
		atoms   = flag.Int("atoms", 5000, "atom count for synthetic workloads")
		seed    = flag.Int64("seed", 1, "seed for synthetic workloads")
		level   = flag.Int("level", 1, "icosphere subdivision level")
		degree  = flag.Int("degree", 1, "Dunavant rule degree per triangle")
		probe   = flag.Float64("probe", 1.4, "solvent probe radius for accessibility culling, Å")
		xyzOut  = flag.String("xyz", "", "write the point cloud as XYZ")
		plyOut  = flag.String("ply", "", "write the point cloud as PLY (with normals and weights)")
		sasaOut = flag.String("sasa", "", "write the per-atom SASA table")
		threads = flag.Int("threads", 4, "surface-build workers (at most one per atom)")
	)
	flag.Parse()

	var mol *molecule.Molecule
	var err error
	switch {
	case *in != "":
		mol, err = molecule.LoadFile(*in)
	case *synth != "":
		switch strings.ToLower(*synth) {
		case "globule":
			mol = molecule.Exactly(molecule.Globule("globule", *atoms, *seed), *atoms, *seed)
		case "shell":
			mol = molecule.Exactly(molecule.Shell("shell", *atoms, 30, *seed), *atoms, *seed)
		case "helix":
			mol = molecule.Helix("helix", *atoms, *seed)
		default:
			err = fmt.Errorf("unknown synthetic workload %q", *synth)
		}
	default:
		err = fmt.Errorf("one of -in or -synthetic is required")
	}
	if err != nil {
		fatal(err)
	}

	// A molecule smaller than -threads gets a worker per atom.
	surf, err := surface.BuildWorkers(mol, surface.Config{
		IcoLevel: *level, RuleDegree: *degree, ProbeRadius: *probe,
	}, min(*threads, mol.NumAtoms()))
	if err != nil {
		fatal(err)
	}

	areas := surf.PerAtomArea(mol.NumAtoms())
	var areaStats stats.Stream
	exposed := 0
	for _, a := range areas {
		if a > 0 {
			exposed++
			areaStats.Add(a)
		}
	}
	fmt.Printf("molecule        %s\n", mol.Name)
	fmt.Printf("atoms           %d (%d exposed, %.1f%%)\n",
		mol.NumAtoms(), exposed, 100*float64(exposed)/float64(mol.NumAtoms()))
	fmt.Printf("quadrature pts  %d (%.2f per atom)\n",
		surf.NumPoints(), float64(surf.NumPoints())/float64(mol.NumAtoms()))
	fmt.Printf("total SASA      %.1f Å²\n", surf.Area)
	fmt.Printf("exposed-atom Å² %s\n", areaStats.String())
	fmt.Printf("nonpolar ΔG     %.2f kcal/mol (γ = %.4f)\n",
		surfaceTension*surf.Area, surfaceTension)

	if *xyzOut != "" {
		if err := withFile(*xyzOut, surf.WriteXYZ); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *xyzOut)
	}
	if *plyOut != "" {
		if err := withFile(*plyOut, surf.WritePLY); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *plyOut)
	}
	if *sasaOut != "" {
		err := withFile(*sasaOut, func(f io.Writer) error {
			type entry struct {
				idx  int
				area float64
			}
			order := make([]entry, 0, len(areas))
			for i, a := range areas {
				order = append(order, entry{i, a})
			}
			sort.Slice(order, func(i, j int) bool { return order[i].area > order[j].area })
			for _, e := range order {
				if _, err := fmt.Fprintf(f, "%d %.4f\n", e.idx, e.area); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *sasaOut)
	}
}

// withFile opens path for writing, runs fn, and closes it.
func withFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gbsurf:", err)
	os.Exit(1)
}
