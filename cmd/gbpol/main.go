// Command gbpol computes the GB polarization energy of a molecule with
// the octree-based r⁶ algorithms.
//
// Usage:
//
//	gbpol -in protein.pqr                       # serial octree run
//	gbpol -synthetic globule -atoms 20000       # synthetic workload
//	gbpol -in m.pqr -driver hybrid -P 2 -p 6    # hybrid layout
//	gbpol -in m.pqr -driver naive               # exact reference
//	gbpol -in m.pqr -eps-born 0.5 -eps-epol 0.3 # accuracy knobs
//	gbpol -in m.pqr -radii out.txt              # dump Born radii
//	gbpol -in m.pqr -driver mpi -metrics text   # deterministic counters
//	gbpol -in m.pqr -trace-out trace.json       # chrome://tracing spans
//	gbpol -in m.pqr -metrics-out metrics.json   # JSON metrics to a file
//	gbpol -in m.pqr -serve 127.0.0.1:8080       # live /metrics + pprof
//
// The octree drivers name one (P, p) layout each: serial is 1×1, cilk is
// 1×p, mpi is P×1 and hybrid is P×p. Any of them can be supervised: phase
// checkpoints land in -checkpoint-dir, a killed run picks up from the
// last completed phase with -resume, and -deadline/-retries bound how
// long the supervisor fights a bad cluster before shedding accuracy:
//
//	gbpol -in m.pqr -driver mpi -P 4 -checkpoint-dir ckpt
//	gbpol -in m.pqr -driver mpi -P 4 -checkpoint-dir ckpt -resume
//	gbpol -in m.pqr -driver cilk -p 4 -deadline 30s -retries 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
	"gbpolar/internal/tune"
)

func main() {
	var (
		in         = flag.String("in", "", "input molecule (.pqr or .xyzrq)")
		synth      = flag.String("synthetic", "", "synthetic workload: globule | shell | helix | cmv | btv")
		atoms      = flag.Int("atoms", 10000, "atom count for synthetic workloads")
		seed       = flag.Int64("seed", 1, "seed for synthetic workloads")
		driver     = flag.String("driver", "serial", "serial | cilk | mpi | hybrid | naive")
		bigP       = flag.Int("P", 2, "processes (mpi/hybrid)")
		smallP     = flag.Int("p", 6, "threads per process (cilk/hybrid)")
		epsBorn    = flag.Float64("eps-born", 0.9, "Born-radii approximation parameter")
		epsEpol    = flag.Float64("eps-epol", 0.9, "energy approximation parameter")
		epsBin     = flag.Float64("eps-bin", 0, "Born-class histogram bin width (0 = derived from -eps-epol)")
		orderF     = flag.Int("order", 1, "far-field expansion order p: 0 monopole, 1 dipole, 2 quadrupole")
		quadOrder  = flag.Int("quad-order", 1, "Dunavant surface-quadrature degree (1..8)")
		targetErr  = flag.Float64("target-error", 0, "auto-tune the accuracy point to this |Epol| error budget in kcal/mol (overrides the accuracy flags above)")
		approx     = flag.Bool("approx-math", false, "use fast inverse-sqrt/exp kernels")
		icoLevel   = flag.Int("surface-level", 0, "icosphere level for the surface sampler (default 1)")
		radiiOut   = flag.String("radii", "", "write Born radii to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON (chrome://tracing) to this file")
		metrics    = flag.String("metrics", "", "print run metrics to stdout: text (deterministic summary) | json")
		metricsOut = flag.String("metrics-out", "", "write the JSON metrics document to this file")
		serveF     = flag.String("serve", "", "serve /metrics, /healthz, and /debug/pprof on this address (e.g. 127.0.0.1:8080) during the run and until interrupted")
		ckptDir    = flag.String("checkpoint-dir", "", "write phase checkpoints to this directory and run supervised (mpi/hybrid)")
		resumeF    = flag.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir")
		deadlineF  = flag.Duration("deadline", 0, "supervised wall-time budget: on expiry the run sheds accuracy instead of overshooting (0 = none)")
		retriesF   = flag.Int("retries", 0, "supervised retry budget before escalating down the degradation ladder (0 = default 2)")
		verbose    = flag.Bool("v", false, "print run statistics")
	)
	flag.Parse()
	if *metrics != "" && *metrics != "text" && *metrics != "json" {
		fatal(fmt.Errorf("unknown -metrics mode %q (want text or json)", *metrics))
	}
	supervised := *ckptDir != "" || *resumeF || *deadlineF > 0 || *retriesF > 0
	if *resumeF && *ckptDir == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint-dir to resume from"))
	}
	drv := strings.ToLower(*driver)
	P, p, octree := layoutOf(drv, *bigP, *smallP)
	if !octree && drv != "naive" {
		fatal(fmt.Errorf("unknown driver %q", *driver))
	}
	if supervised && !octree {
		fatal(fmt.Errorf("-checkpoint-dir/-resume/-deadline/-retries need an octree driver, not -driver naive"))
	}

	mol, err := loadMolecule(*in, *synth, *atoms, *seed)
	if err != nil {
		fatal(err)
	}
	var (
		surf   *surface.Surface
		sys    *gb.System
		sel    *tune.Selection
		ladder []supervise.RelaxStep
	)
	if *targetErr > 0 {
		// Auto-tune: search the accuracy space for the cheapest point that
		// meets the error budget; the point (and the shed ladder the
		// supervisor steps down) replaces the manual accuracy flags.
		params := gb.DefaultParams()
		if *approx {
			params.Math = gb.ApproxMath
		}
		sel, err = tune.Select(mol, *targetErr, tune.Options{
			Params:            params,
			Surface:           surface.Config{IcoLevel: *icoLevel, ProbeRadius: 1.4},
			Processes:         P,
			ThreadsPerProcess: p,
		})
		if err != nil {
			fatal(err)
		}
		surf, sys = sel.Surface, sel.System
		for _, p := range sel.Ladder {
			ladder = append(ladder, supervise.RelaxStep{Accuracy: p.Acc, RelError: p.PredictedRelError})
		}
	} else {
		surf, err = surface.Build(mol, surface.Config{
			IcoLevel:    *icoLevel,
			RuleDegree:  *quadOrder,
			ProbeRadius: 1.4,
		})
		if err != nil {
			fatal(err)
		}
		params := gb.DefaultParams()
		params.Accuracy = gb.Accuracy{
			EpsBorn:   *epsBorn,
			EpsEpol:   *epsEpol,
			BinWidth:  *epsBin,
			QuadOrder: *quadOrder,
			Order:     *orderF,
		}
		if *approx {
			params.Math = gb.ApproxMath
		}
		sys, err = gb.NewSystem(mol, surf, params)
		if err != nil {
			fatal(err)
		}
	}

	var rec *obs.Recorder
	if *traceOut != "" || *metrics != "" || *metricsOut != "" || *serveF != "" {
		rec = obs.NewRecorder(perf.StartTimer().Elapsed)
		rec.SetLabel(fmt.Sprintf("gbpol %s %s", mol.Name, drv))
	}
	var srv *obs.Server
	if *serveF != "" {
		srv, err = obs.Serve(*serveF, rec)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gbpol: serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}

	var res *gb.Result
	var sup *supervise.Outcome
	switch {
	case !octree:
		radii, bornOps := sys.NaiveBornRadiiR6()
		e, epolOps := sys.NaiveEpol(radii)
		res = &gb.Result{Epol: e, Born: radii, Processes: 1, ThreadsPerProcess: 1,
			PerCoreOps: []int64{bornOps + epolOps}}
	case supervised:
		sup, err = runSupervised(sys, P, p, *ckptDir, *resumeF, *deadlineF, *retriesF, ladder, rec)
	default:
		res, err = sys.Run(gb.RunSpec{Processes: P, ThreadsPerProcess: p, Obs: rec})
	}
	if err != nil {
		fatal(err)
	}
	if sup != nil {
		res = sup.Result
		// The supervised output paths below export the winning attempt's
		// run recorder; the CLI-level recorder (already attached to -serve)
		// keeps the supervisor's own counters and escalation events.
		if rec != nil {
			rec = sup.Recorder
			rec.SetLabel(fmt.Sprintf("gbpol %s %s supervised", mol.Name, drv))
		}
	}
	fmt.Printf("molecule      %s (%d atoms, %d quadrature points)\n",
		mol.Name, mol.NumAtoms(), surf.NumPoints())
	fmt.Printf("driver        %s (P=%d, p=%d)\n", *driver, res.Processes, res.ThreadsPerProcess)
	fmt.Printf("Epol          %.4f kcal/mol\n", res.Epol)
	if sel != nil {
		a := sel.Point.Acc
		fmt.Printf("accuracy      tuned for ±%g kcal/mol: eps-born=%g eps-epol=%g bin=%g quad-order=%d order=%d (measured %.3g, %d verify runs)\n",
			*targetErr, a.EpsBorn, a.EpsEpol, a.BinWidth, a.QuadOrder, a.Order,
			sel.Point.MeasuredError, sel.VerifyRuns)
	}
	if sup != nil {
		fmt.Printf("supervision   rung=%s attempts=%d eps-factor=%.3g\n",
			sup.Rung, len(sup.Attempts), sup.EpsFactor)
		if sup.DeadlineExceeded {
			fmt.Printf("supervision   deadline exceeded — fell back to a best-effort run\n")
		}
		if sup.Degraded {
			fmt.Printf("supervision   degraded result, error bound ±%.4g kcal/mol\n", res.ErrorBound)
		}
	}
	if *verbose {
		fmt.Printf("interactions  %d\n", res.TotalOps())
		fmt.Printf("wall time     %v\n", res.Wall)
		if res.Steals > 0 {
			fmt.Printf("steals        %d\n", res.Steals)
		}
		// Sorted-kind rendering via the shared helper: map-order output
		// would drift between identical runs.
		for _, kind := range obs.SortedKeys(res.Traffic.Collectives) {
			st := res.Traffic.Collectives[kind]
			fmt.Printf("comm          %s: %d calls, %d bytes\n", kind, st.Calls, st.Bytes)
		}
	}
	switch *metrics {
	case "text":
		fmt.Print(rec.Summary())
	case "json":
		if err := rec.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, rec); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *radiiOut != "" {
		f, err := os.Create(*radiiOut)
		if err != nil {
			fatal(err)
		}
		for i, r := range res.Born {
			fmt.Fprintf(f, "%d %.6f\n", i, r)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if srv != nil {
		// Keep the endpoint up after the run so /debug/pprof and the final
		// /metrics remain scrapeable; Ctrl-C exits.
		fmt.Fprintf(os.Stderr, "gbpol: run complete, still serving on http://%s (interrupt to exit)\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// layoutOf maps an octree -driver to its (P, p) layout; ok is false for
// any other driver name.
func layoutOf(driver string, P, p int) (int, int, bool) {
	switch driver {
	case "serial":
		return 1, 1, true
	case "cilk":
		return 1, p, true
	case "mpi":
		return P, 1, true
	case "hybrid":
		return P, p, true
	}
	return 0, 0, false
}

// runSupervised routes a run through the run supervisor:
// checkpoints go to dir (in memory when dir is empty), the deadline and
// retry budget bound the escalation ladder. Without -resume, a directory
// already holding checkpoints is refused rather than silently resumed
// from stale state.
func runSupervised(sys *gb.System, P, p int, dir string, resume bool, deadline time.Duration, retries int, ladder []supervise.RelaxStep, rec *obs.Recorder) (*supervise.Outcome, error) {
	var store supervise.Store
	if dir != "" {
		ds := &supervise.DirStore{Dir: dir}
		if ck, err := ds.Latest(); err != nil {
			return nil, err
		} else if ck != nil && !resume {
			return nil, fmt.Errorf("checkpoint dir %s already holds a %s checkpoint; pass -resume to continue it or clear the directory", dir, ck.Phase)
		} else if ck != nil {
			fmt.Fprintf(os.Stderr, "gbpol: resuming from %s checkpoint in %s\n", ck.Phase, dir)
		} else if resume {
			return nil, fmt.Errorf("-resume: no usable checkpoint in %s", dir)
		}
		store = ds
	}
	out, err := supervise.Run(sys, supervise.Spec{
		Processes:         P,
		ThreadsPerProcess: p,
		Deadline:          deadline,
		Retries:           retries,
		Store:             store,
		Obs:               rec,
		AccuracyLadder:    ladder,
	})
	if err == nil && dir != "" {
		// The run is done; keep only the newest snapshot per config so a
		// repeatedly-checkpointed directory doesn't grow without bound. A
		// prune failure costs disk, not the result.
		if removed, perr := store.(*supervise.DirStore).Prune(1); perr != nil {
			fmt.Fprintf(os.Stderr, "gbpol: checkpoint prune: %v\n", perr)
		} else if removed > 0 {
			fmt.Fprintf(os.Stderr, "gbpol: pruned %d checkpoint file(s) from %s\n", removed, dir)
		}
	}
	return out, err
}

func loadMolecule(in, synth string, atoms int, seed int64) (*molecule.Molecule, error) {
	switch {
	case in != "":
		return molecule.LoadFile(in)
	case synth != "":
		switch strings.ToLower(synth) {
		case "globule":
			return molecule.Exactly(molecule.Globule("globule", atoms, seed), atoms, seed), nil
		case "shell":
			return molecule.Exactly(molecule.Shell("shell", atoms, 30, seed), atoms, seed), nil
		case "helix":
			return molecule.Helix("helix", atoms, seed), nil
		case "cmv":
			return molecule.ScaledCMV(atoms), nil
		case "btv":
			return molecule.ScaledBTV(atoms), nil
		}
		return nil, fmt.Errorf("unknown synthetic workload %q", synth)
	}
	return nil, fmt.Errorf("one of -in or -synthetic is required")
}

// fatal prints err and exits. Malformed molecules (NaN coordinates,
// non-positive radii, duplicate atom serials) exit with status 2 so
// scripts can tell "your input is wrong" from a run failure's status 1.
func fatal(err error) {
	if errors.Is(err, molecule.ErrInvalidInput) {
		fmt.Fprintln(os.Stderr, "gbpol: input error:", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "gbpol:", err)
	os.Exit(1)
}
