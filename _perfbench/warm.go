package main

import (
	"fmt"
	"math"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/critpath"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// warm-mpi2 re-solves one prepared system at two ranks, the way MD and
// docking callers re-solve: the builds are off the timed path, so the gb
// traversal kernels and the simmpi collectives do nearly all the work.
// The system is the 3,690-atom roster entry 2SNI_r_b, about 0.3 s per
// solve on a 2-vCPU VM; the self-test uses the 700-atom 1AY7_r_b. With
// one system and one layout, the seed changes nothing.
const (
	warmEntry      = "2SNI_r_b"
	warmShortEntry = "1AY7_r_b"
)

// warmSpec is warm-mpi2's layout: runDistributed, the driver production
// uses, at two single-threaded ranks.
func warmSpec(rec *obs.Recorder) gb.RunSpec { return gb.RunSpec{Processes: 2, Obs: rec} }

func runWarmMPI2(cfg config) (*report, error) {
	r := newReport()
	norm := newNormalizer(2)
	name := warmEntry
	if cfg.short {
		name = warmShortEntry
	}
	entry, err := rosterEntry(name)
	if err != nil {
		return nil, err
	}
	var sys *gb.System
	var systemMs float64
	set, err := r.setup(norm, func() error {
		mol := molecule.ZDockMolecule(entry)
		surf, err := surface.Build(mol, surface.DefaultConfig())
		if err != nil {
			return err
		}
		t := time.Now()
		sys, err = gb.NewSystem(mol, surf, gb.DefaultParams())
		systemMs = ms(time.Since(t))
		if err != nil {
			return err
		}
		_, err = sys.Run(warmSpec(nil)) // warm-up
		return err
	})
	if err != nil {
		return nil, err
	}

	var epols []float64
	solve := func(rec *obs.Recorder) *gb.Result {
		r.attempted++
		res, err := sys.Run(warmSpec(rec))
		if err != nil {
			r.fail("solve: %v", err)
			return nil
		}
		epols = append(epols, res.Epol)
		return res
	}
	var ss []sample
	meter := startRuntimeMeter()
	forCycles(cfg.loopSeconds(), func() {
		var res *gb.Result
		s := norm.time(func() { res = solve(nil) })
		if res != nil {
			ss = append(ss, s)
		}
	})
	meter.record(r, len(ss))
	r.timings(ss, make([]int, len(ss)), []int{sys.NumAtoms()})
	if err := r.recordPeakRSS(); err != nil {
		return nil, err
	}

	if cfg.trace {
		var m means
		var traced []sample
		forCycles(cfg.loopSeconds(), func() {
			rec := obs.NewRecorder(perf.StartTimer().Elapsed)
			var res *gb.Result
			s := norm.time(func() { res = solve(rec) })
			if res == nil {
				return
			}
			traced = append(traced, s)
			covered := m.addSolve(critpath.FromRecorder(rec), res, rec.Counters(), sys.NumAtoms(), s.normMs, s.factor())
			m.add("trace.phase_coverage_frac", covered/s.normMs)
		})
		m.into(r)
		r.values["gb.system_ms"] = systemMs * set.factor()
		r.values["surface.qpoints_per_atom"] = float64(sys.NumQPoints()) / float64(sys.NumAtoms())
		r.overhead(traced)
	}

	naive := naiveEpol(sys)
	r.checkEpols(name, epols, naive, tune.RelErrorBound(sys.Params.Accuracy)*math.Abs(naive))
	return r, nil
}

// rosterEntry looks a roster molecule up by name.
func rosterEntry(name string) (molecule.BenchmarkEntry, error) {
	for _, e := range molecule.ZDockRoster() {
		if e.Name == name {
			return e, nil
		}
	}
	return molecule.BenchmarkEntry{}, fmt.Errorf("no roster entry %q", name)
}
