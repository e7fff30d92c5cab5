// Package gbpolar's root benchmark suite: one testing.B benchmark per
// table and figure of the paper (DESIGN.md §4), each running a
// laptop-scale version of the corresponding experiment. The full-scale
// rows are produced by cmd/benchtables; these benches give `go test
// -bench=.` coverage of every experiment path plus microbenches of the
// hot kernels.
package gbpolar_test

import (
	"testing"

	"gbpolar/internal/bench"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/octree"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
)

// benchOpts shrinks every experiment to benchmark-friendly size.
func benchOpts() bench.Options {
	return bench.Options{
		Scale:    0.0008,
		Runs:     5,
		MaxAtoms: 1200,
		Machine:  perf.Lonestar4(),
		Cal:      perf.DefaultCalibration(),
	}
}

// runExperiment benchmarks one experiment id end to end.
func runExperiment(b *testing.B, id string) {
	o := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)             { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)             { runExperiment(b, "table2") }
func BenchmarkFig5Scalability(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig6Envelopes(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7OctreePrograms(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8aRunningTimes(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8bSpeedups(b *testing.B)      { runExperiment(b, "fig8b") }
func BenchmarkFig9Energies(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10EpsilonSweep(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11LargeMolecule(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkMemoryReplication(b *testing.B)  { runExperiment(b, "memory") }

func BenchmarkAblationDivision(b *testing.B) { runExperiment(b, "ablation-division") }
func BenchmarkAblationMath(b *testing.B)     { runExperiment(b, "ablation-math") }
func BenchmarkAblationLeaf(b *testing.B)     { runExperiment(b, "ablation-leaf") }
func BenchmarkAblationBinning(b *testing.B)  { runExperiment(b, "ablation-binning") }
func BenchmarkAblationStealing(b *testing.B) { runExperiment(b, "ablation-stealing") }
func BenchmarkAblationDynamic(b *testing.B)  { runExperiment(b, "ablation-dynamic") }
func BenchmarkAblationIntegral(b *testing.B) { runExperiment(b, "ablation-integral") }
func BenchmarkAblationNblist(b *testing.B)   { runExperiment(b, "ablation-nblist") }
func BenchmarkAblationDistData(b *testing.B) { runExperiment(b, "ablation-distdata") }

// --- microbenches of the building blocks --------------------------------

// benchSystem builds one shared medium system.
func benchSystem(b *testing.B, atoms int) *gb.System {
	b.Helper()
	mol := molecule.Exactly(molecule.Globule("bench", atoms, 99), atoms, 99)
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkOctreeBuild(b *testing.B) {
	mol := molecule.Exactly(molecule.Globule("bench", 10000, 99), 10000, 99)
	pts := mol.Positions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		octree.Build(pts, 8)
	}
}

func BenchmarkSurfaceBuild(b *testing.B) {
	mol := molecule.Exactly(molecule.Globule("bench", 5000, 99), 5000, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surface.Build(mol, surface.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBornRadiiOctree(b *testing.B) {
	sys := benchSystem(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.BornRadii()
	}
}

func BenchmarkBornRadiiNaive(b *testing.B) {
	sys := benchSystem(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.NaiveBornRadiiR6()
	}
}

func BenchmarkEpolOctree(b *testing.B) {
	sys := benchSystem(b, 3000)
	radii, _ := sys.BornRadii()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Epol(radii)
	}
}

func BenchmarkEpolNaive(b *testing.B) {
	sys := benchSystem(b, 3000)
	radii, _ := sys.BornRadii()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.NaiveEpol(radii)
	}
}

func BenchmarkRunCilk12(b *testing.B) {
	sys := benchSystem(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(gb.RunSpec{ThreadsPerProcess: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunMPI12(b *testing.B) {
	sys := benchSystem(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(gb.RunSpec{Processes: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunHybrid2x6(b *testing.B) {
	sys := benchSystem(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(gb.RunSpec{Processes: 2, ThreadsPerProcess: 6}); err != nil {
			b.Fatal(err)
		}
	}
}
