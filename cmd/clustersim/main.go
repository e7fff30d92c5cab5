// Command clustersim explores cluster layouts for one workload: it runs
// the hybrid algorithm at a series of (processes × threads) layouts and
// prints the modeled time breakdown on the Table I machine — the tool for
// answering "how should I lay this molecule out on my cluster?".
//
// Usage:
//
//	clustersim -atoms 100000                  # sweep layouts on a globule
//	clustersim -atoms 50000 -shape shell      # capsid-like workload
//	clustersim -nodes 1,2,4,8 -rpn 12,2       # custom node counts / ranks-per-node
//	clustersim -faults chaos:6                # seeded chaos schedule per layout
//	clustersim -faults 'crash:1@4,slow:2@0+8~100us' -policy degrade  # rank 1 dies at the energy tick
//	clustersim -faults chaos:6 -retries 3     # supervised: retry/resume per layout
//	clustersim -checkpoint-dir ckpt           # phase checkpoints per layout
//	clustersim -checkpoint-dir ckpt -resume   # pick interrupted layouts back up
//	clustersim -faults chaos:8 -deadline 30s  # shed accuracy rather than overshoot
//	clustersim -trace-out trace.json          # chrome://tracing span timeline
//	clustersim -metrics text                  # deterministic per-layout counters
//	clustersim -metrics-out metrics.json      # JSON metrics documents to a file
//	clustersim -serve 127.0.0.1:8080          # live /metrics + pprof during the sweep
//
// Fault-injected sweeps (-faults) dump each recovering layout's flight
// recorder — the last spans, collectives, and fault hits per rank — to
// stderr, so a degraded row in the table comes with its post-mortem.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"gbpolar/internal/bench"
	"gbpolar/internal/fault"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
	"gbpolar/internal/supervise"
	"gbpolar/internal/surface"
)

func main() {
	var (
		atoms      = flag.Int("atoms", 50000, "workload size")
		shapeF     = flag.String("shape", "globule", "globule | shell")
		nodesF     = flag.String("nodes", "1,2,4,8,16,32", "comma-separated node counts")
		rpnF       = flag.String("rpn", "12,2", "ranks per node to compare (threads fill the node)")
		seed       = flag.Int64("seed", 7, "workload seed (also seeds chaos fault schedules)")
		faultsF    = flag.String("faults", "", "fault plan: 'chaos:N' for N seeded random crash and slow events per layout, or an explicit schedule like 'crash:1@4,corrupt:2@3+2,slow:1@0+8~100us' (kinds crash, slow, corrupt; a clean run's ops per rank are 0/1 Born tick/Allreduce, 2/3 radii tick/Allgatherv, 4/5 energy tick/Allreduce; empty: no injection)")
		policyF    = flag.String("policy", "recover", "fault policy: recover (re-assign lost work) | degrade (partial Epol + error bound)")
		traceOut   = flag.String("trace-out", "", "write the sweep's spans as one Chrome trace-event JSON (chrome://tracing; one process row per layout) to this file")
		metrics    = flag.String("metrics", "", "print per-layout metrics to stdout after the table: text (deterministic summaries) | json (one document per layout)")
		metricsOut = flag.String("metrics-out", "", "write the per-layout JSON metrics documents (concatenated) to this file")
		serveF     = flag.String("serve", "", "serve /metrics, /healthz, and /debug/pprof on this address during the sweep and until interrupted")
		ckptDir    = flag.String("checkpoint-dir", "", "write per-layout phase checkpoints under this directory and run each layout supervised")
		resumeF    = flag.Bool("resume", false, "resume layouts from their checkpoints in -checkpoint-dir")
		deadlineF  = flag.Duration("deadline", 0, "per-layout supervised deadline: on expiry a layout sheds accuracy instead of overshooting (0 = none)")
		retriesF   = flag.Int("retries", 0, "per-layout supervised retry budget (0 = default 2)")
		epsF       = flag.Float64("eps", 0.9, "octree approximation parameter (both far-field criteria)")
		orderF     = flag.Int("order", 1, "far-field expansion order p: 0 monopole, 1 dipole, 2 quadrupole")
	)
	flag.Parse()
	if *metrics != "" && *metrics != "text" && *metrics != "json" {
		fatal(fmt.Errorf("unknown -metrics mode %q (want text or json)", *metrics))
	}
	supervised := *ckptDir != "" || *resumeF || *deadlineF > 0 || *retriesF > 0
	if *resumeF && *ckptDir == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint-dir to resume from"))
	}

	var policy gb.FaultPolicy
	switch *policyF {
	case "recover":
		policy = gb.Recover
	case "degrade":
		policy = gb.Degrade
	default:
		fatal(fmt.Errorf("unknown policy %q (want recover or degrade)", *policyF))
	}
	chaosN := 0
	var basePlan *fault.Plan
	if *faultsF != "" {
		if n, ok := strings.CutPrefix(*faultsF, "chaos:"); ok {
			v, err := strconv.Atoi(n)
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad chaos event count %q", n))
			}
			chaosN = v
		} else {
			p, err := fault.Parse(*faultsF)
			if err != nil {
				fatal(err)
			}
			basePlan = p
		}
	}
	injecting := chaosN > 0 || basePlan != nil

	var mol *molecule.Molecule
	switch *shapeF {
	case "globule":
		mol = molecule.Exactly(molecule.Globule("workload", *atoms, *seed), *atoms, *seed)
	case "shell":
		mol = molecule.Exactly(molecule.Shell("workload", *atoms, 30, *seed), *atoms, *seed)
	default:
		fatal(fmt.Errorf("unknown shape %q", *shapeF))
	}
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	params := gb.DefaultParams()
	params.Accuracy = gb.Accuracy{EpsBorn: *epsF, EpsEpol: *epsF, QuadOrder: 1, Order: *orderF}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		fatal(err)
	}

	machine := perf.Lonestar4()
	cal := perf.DefaultCalibration()
	nodes, err := parseInts(*nodesF)
	if err != nil {
		fatal(err)
	}
	rpns, err := parseInts(*rpnF)
	if err != nil {
		fatal(err)
	}

	tab := &bench.Table{
		ID:     "clustersim",
		Title:  fmt.Sprintf("Layout sweep for %s (%d atoms, %d q-points)", mol.Name, sys.NumAtoms(), sys.NumQPoints()),
		Header: []string{"Nodes", "Ranks/node", "Threads/rank", "Cores", "Comp", "Comm", "Total", "Mem/node GB"},
	}
	if injecting || supervised {
		tab.Header = append(tab.Header, "Fault", "Outcome")
	}
	observing := *traceOut != "" || *metrics != "" || *metricsOut != "" || *serveF != ""
	var recs []*obs.Recorder
	var srv *obs.Server
	if *serveF != "" {
		srv, err = obs.Serve(*serveF)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "clustersim: serving /metrics, /healthz, /debug/pprof on http://%s\n", srv.Addr())
	}
	for _, n := range nodes {
		for _, rpn := range rpns {
			if machine.CoresPerNode%rpn != 0 {
				continue
			}
			threads := machine.CoresPerNode / rpn
			P := n * rpn
			var cfg *gb.FaultConfig
			if injecting {
				plan := basePlan
				if chaosN > 0 {
					plan = fault.Chaos(*seed, P, chaosN)
				}
				cfg = &gb.FaultConfig{Plan: plan, Policy: policy}
			}
			// One recorder per layout: in the Chrome trace each layout
			// renders as its own process row with per-rank thread timelines.
			var rec *obs.Recorder
			if observing || injecting {
				rec = obs.NewRecorder(perf.StartTimer().Elapsed)
				rec.SetLabel(fmt.Sprintf("P=%d p=%d", P, threads))
				if srv != nil {
					srv.Attach(rec)
				}
			}
			var res *gb.Result
			var supOut *supervise.Outcome
			if supervised {
				var store supervise.Store
				if *ckptDir != "" {
					store, err = layoutStore(*ckptDir, P, threads, *resumeF)
					if err != nil {
						fatal(err)
					}
				}
				var planFn func(int) *fault.Plan
				if cfg != nil {
					plan := cfg.Plan
					planFn = func(int) *fault.Plan { return plan }
				}
				supOut, err = supervise.Run(sys, supervise.Spec{
					Processes:         P,
					ThreadsPerProcess: threads,
					Policy:            policy,
					Plan:              planFn,
					Deadline:          *deadlineF,
					Retries:           *retriesF,
					Store:             store,
					Obs:               rec,
				})
				if err != nil {
					fatal(err)
				}
				res = supOut.Result
				if ds, ok := store.(*supervise.DirStore); ok {
					// Layout done: retain only the newest snapshot so sweeping
					// many layouts doesn't accumulate every phase's file.
					if _, perr := ds.Prune(1); perr != nil {
						fmt.Fprintf(os.Stderr, "clustersim: checkpoint prune: %v\n", perr)
					}
				}
				if observing {
					// The layout recorder keeps the supervisor's counters and
					// escalation events; the winning attempt's run recorder
					// carries the run itself. Export both.
					supOut.Recorder.SetLabel(fmt.Sprintf("P=%d p=%d run", P, threads))
					recs = append(recs, rec, supOut.Recorder)
				}
			} else {
				if observing {
					recs = append(recs, rec)
				}
				spec := gb.RunSpec{
					Processes:         P,
					ThreadsPerProcess: threads,
					Faults:            cfg,
					Obs:               rec,
				}
				if injecting {
					// Post-mortem context for any layout that had to heal or
					// degrade: its flight recorder lands on stderr next to the
					// table row.
					spec.Flight = os.Stderr
				}
				res, err = sys.Run(spec)
				if err != nil {
					fatal(err)
				}
			}
			row := []string{strconv.Itoa(n), strconv.Itoa(rpn), strconv.Itoa(threads),
				strconv.Itoa(P * threads)}
			if len(res.PerCoreOps) > 0 {
				shape := perf.RunShape{Processes: res.Processes, ThreadsPerProcess: res.ThreadsPerProcess, DataBytes: sys.DataBytes()}
				b, err := machine.Price(cal, shape, res.PerCoreOps, res.Traffic)
				if err != nil {
					fatal(err)
				}
				b.Record(rec)
				row = append(row,
					fmt.Sprintf("%.4gs", b.CompSeconds), fmt.Sprintf("%.4gs", b.CommSeconds),
					fmt.Sprintf("%.4gs", b.TotalSeconds),
					fmt.Sprintf("%.2f", float64(b.MemPerNodeBytes)/float64(1<<30)))
				if injecting || supervised {
					row = append(row, fmt.Sprintf("%.4gs", b.FaultSeconds), outcomeCell(res, supOut))
				}
			} else {
				// The layout resumed from an already-complete checkpoint:
				// no work ran, so there is nothing to price.
				row = append(row, "-", "-", "-", "-")
				if injecting || supervised {
					row = append(row, "-", outcomeCell(res, supOut))
				}
			}
			tab.AddRow(row...)
		}
	}
	if err := tab.Print(os.Stdout); err != nil {
		fatal(err)
	}
	switch *metrics {
	case "text":
		for _, rec := range recs {
			fmt.Print(rec.Summary())
		}
	case "json":
		for _, rec := range recs {
			if err := rec.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		for _, rec := range recs {
			if err := rec.WriteJSON(f); err != nil {
				fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, recs...); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "clustersim: sweep complete, still serving on http://%s (interrupt to exit)\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// layoutStore returns the layout's on-disk checkpoint store under dir.
// Without -resume a subdirectory already holding checkpoints is refused
// rather than silently resumed from stale state.
func layoutStore(dir string, P, threads int, resume bool) (supervise.Store, error) {
	ds := &supervise.DirStore{Dir: filepath.Join(dir, fmt.Sprintf("P%dp%d", P, threads))}
	ck, err := ds.Latest()
	if err != nil {
		return nil, err
	}
	if ck != nil && !resume {
		return nil, fmt.Errorf("checkpoint dir %s already holds a %s checkpoint; pass -resume to continue it or clear the directory", ds.Dir, ck.Phase)
	}
	if ck != nil {
		fmt.Fprintf(os.Stderr, "clustersim: resuming P=%d p=%d from its %s checkpoint\n", P, threads, ck.Phase)
	}
	return ds, nil
}

// outcomeCell renders the table's Outcome column: the supervised ladder
// verdict when the layout ran under the supervisor, the in-run recovery
// status otherwise.
func outcomeCell(r *gb.Result, sup *supervise.Outcome) string {
	if sup == nil {
		return outcome(r)
	}
	s := sup.Rung.String()
	if len(sup.Attempts) > 1 {
		s += fmt.Sprintf(" (%d attempts)", len(sup.Attempts))
	}
	if sup.DeadlineExceeded {
		s += " deadline"
	}
	if sup.Degraded {
		s += fmt.Sprintf(" degraded ±%.3g", r.ErrorBound)
	}
	return s
}

// outcome summarizes a fault-injected run's recovery status for the table.
func outcome(r *gb.Result) string {
	switch {
	case r.Degraded:
		return fmt.Sprintf("degraded ±%.3g (lost %v)", r.ErrorBound, r.LostRanks)
	case len(r.LostRanks) > 0:
		return fmt.Sprintf("recovered (lost %v)", r.LostRanks)
	case r.Recovered:
		return "healed"
	default:
		return "clean"
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clustersim:", err)
	os.Exit(1)
}
