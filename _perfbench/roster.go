package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/obs/critpath"
	"gbpolar/internal/octree"
	"gbpolar/internal/perf"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

// roster-cold solves roster molecules from their PQR bytes, serially, one
// after another: what a screening user pays per molecule, and the only
// workload with the surface, octree and moment builds on the blocking
// path. It covers the roster entries up to rosterMaxAtoms (1PPE_l_b …
// 1AHW_l_b); the self-test stops at rosterShortAtoms.
const (
	rosterMaxAtoms   = 2200
	rosterShortAtoms = 600
)

// rosterItem is one roster molecule as a user hands it in.
type rosterItem struct {
	name  string
	atoms int
	pqr   []byte
}

// rosterInputs writes the PQR bytes of every roster entry up to maxAtoms.
func rosterInputs(maxAtoms int) ([]rosterItem, error) {
	var items []rosterItem
	for _, e := range molecule.ZDockRoster() {
		if e.Atoms > maxAtoms {
			break // the roster is sorted by size
		}
		var buf bytes.Buffer
		if err := molecule.WritePQR(&buf, molecule.ZDockMolecule(e)); err != nil {
			return nil, fmt.Errorf("writing %s: %w", e.Name, err)
		}
		items = append(items, rosterItem{name: e.Name, atoms: e.Atoms, pqr: buf.Bytes()})
	}
	return items, nil
}

// buildRoster is a roster sample's build path: parse, surface, then the
// octrees and moments. lap marks the end of each step.
func buildRoster(pqr []byte, lap func(metric string)) (*gb.System, error) {
	mol, err := molecule.ReadPQR(bytes.NewReader(pqr))
	if err != nil {
		return nil, err
	}
	lap("molecule.parse_ms")
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lap("surface.build_ms")
	sys, err := gb.NewSystem(mol, surf, gb.DefaultParams())
	lap("gb.system_ms")
	return sys, err
}

func runRosterCold(cfg config) (*report, error) {
	r := newReport()
	norm := newNormalizer(1)
	maxAtoms := rosterMaxAtoms
	if cfg.short {
		maxAtoms = rosterShortAtoms
	}
	var items []rosterItem
	if _, err := r.setup(norm, func() (err error) {
		items, err = rosterInputs(maxAtoms)
		return err
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	epols := make([][]float64, len(items))
	// solve runs one sample of item i: PQR bytes to Epol.
	solve := func(i int, rec *obs.Recorder, lap func(string)) (*gb.System, *gb.Result) {
		r.attempted++
		sys, err := buildRoster(items[i].pqr, lap)
		var res *gb.Result
		if err == nil {
			res, err = sys.Run(gb.RunSpec{Obs: rec})
		}
		if err != nil {
			r.fail("%s: %v", items[i].name, err)
			return nil, nil
		}
		epols[i] = append(epols[i], res.Epol)
		return sys, res
	}

	var ss []sample
	var sampled []int
	meter := startRuntimeMeter()
	forCycles(cfg.loopSeconds(), func() {
		for _, i := range rng.Perm(len(items)) {
			var res *gb.Result
			s := norm.time(func() { _, res = solve(i, nil, noLap) })
			if res != nil {
				ss = append(ss, s)
				sampled = append(sampled, i)
			}
		}
	})
	meter.record(r, len(ss))
	atoms := make([]int, len(items))
	for i, it := range items {
		atoms[i] = it.atoms
	}
	r.timings(ss, sampled, atoms)
	if err := r.recordPeakRSS(); err != nil {
		return nil, err
	}

	if cfg.trace {
		var m means
		var traced []sample
		forCycles(cfg.loopSeconds(), func() {
			for _, i := range rng.Perm(len(items)) {
				rec := obs.NewRecorder(perf.StartTimer().Elapsed)
				var lp *laps
				var sys *gb.System
				var res *gb.Result
				s := norm.time(func() {
					lp = newLaps()
					sys, res = solve(i, rec, lp.mark)
					lp.mark("solve")
				})
				if res == nil {
					continue
				}
				traced = append(traced, s)
				f := s.factor()
				covered := 0.0
				for _, k := range []string{"molecule.parse_ms", "surface.build_ms", "gb.system_ms"} {
					m.add(k, lp.ms[k]*f)
					covered += lp.ms[k] * f
				}
				covered += m.addSolve(critpath.FromRecorder(rec), res, rec.Counters(), items[i].atoms, lp.ms["solve"]*f, f)
				m.add("trace.phase_coverage_frac", covered/s.normMs)
				m.add("surface.qpoints_per_atom", float64(sys.NumQPoints())/float64(sys.NumAtoms()))
				// NewSystem builds the atom and quadrature octrees with no
				// span between them and the moments, so they are rebuilt
				// and timed on their own.
				o := norm.time(func() {
					octree.Build(sys.Mol.Positions(), sys.Params.LeafAtoms)
					octree.Build(sys.Surf.Positions(), sys.Params.LeafQPoints)
				})
				m.add("octree.build_ms", o.normMs)
			}
		})
		m.into(r)
		r.overhead(traced)
	}

	// Every energy against its molecule's naïve reference.
	naive := make([]float64, len(items))
	bound := make([]float64, len(items))
	errs := make([]error, len(items))
	forEachParallel(len(items), func(i int) {
		sys, err := buildRoster(items[i].pqr, noLap)
		if err != nil {
			errs[i] = err
			return
		}
		naive[i] = naiveEpol(sys)
		bound[i] = tune.RelErrorBound(sys.Params.Accuracy) * math.Abs(naive[i])
	})
	for i, it := range items {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", it.name, errs[i])
		}
		r.checkEpols(it.name, epols[i], naive[i], bound[i])
	}
	return r, nil
}
