package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

// The bench trajectory is the repo's perf history: cmd/benchjson runs
// the roster across the paper's driver layouts and emits one
// schema-versioned BENCH_<label>.json; cmd/benchdiff compares two such
// files and exits nonzero on regression (make bench-gate wires the
// committed BENCH_seed.json baseline into CI).
//
// A trajectory separates three signal classes:
//
//   - Ops and the counter-side histogram summaries are deterministic
//     workload invariants: ANY drift is reported, because it means the
//     algorithm did different work and the baseline must be consciously
//     regenerated.
//   - ModelSec is the deterministic α–β modeled time: a slowdown beyond
//     MaxModelRatio is a regression regardless of host noise.
//   - WallNs is host wall time (min over Repeats): kernels are compared
//     by ns/op ratio normalized by the geometric mean ratio across
//     kernels, which cancels a uniformly faster or slower host, so the
//     gate travels between the baseline machine and CI.

// TrajectorySchemaVersion is bumped on any incompatible change to the
// Trajectory JSON layout; benchdiff refuses mismatched schemas.
const TrajectorySchemaVersion = 1

// TrajectoryKernel is one (layout, molecule) cell of a trajectory.
type TrajectoryKernel struct {
	// Name is "layout/molecule" ("mpi4/1avx_a").
	Name string `json:"name"`
	// Atoms is the molecule size.
	Atoms int `json:"atoms"`
	// Ops is the deterministic interaction-evaluation count.
	Ops int64 `json:"ops"`
	// WallNs is the minimum in-process wall time over the repeats.
	WallNs int64 `json:"wall_ns"`
	// NsPerOp is WallNs / Ops — the noise-prone host signal benchdiff
	// normalizes before gating.
	NsPerOp float64 `json:"ns_per_op"`
	// ModelSec is the deterministic modeled total on the Table I machine.
	ModelSec float64 `json:"model_sec"`
}

// TrajectoryHist is the deterministic summary of one counter-side
// histogram accumulated across the whole collection run.
type TrajectoryHist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
}

// Trajectory is one BENCH_<label>.json document.
type Trajectory struct {
	Schema   int                       `json:"schema"`
	Label    string                    `json:"label"`
	MaxAtoms int                       `json:"max_atoms"`
	Repeats  int                       `json:"repeats"`
	Kernels  []TrajectoryKernel        `json:"kernels"`
	Hists    map[string]TrajectoryHist `json:"hists"`
}

// trajectoryLayouts are the driver layouts every roster molecule runs
// under: the serial baseline, the three paper programs at gate-friendly
// widths, and the PR 8 multipole accuracy variants (serial runs at the
// order-p endpoints of the work/precision grid). Accuracy-variant
// kernels do NOT feed the shared recorder: the counter-side histogram
// summaries are gated as deterministic workload invariants against
// baselines that predate the variants.
var trajectoryLayouts = []struct {
	name string
	P, p int          // ranks × threads per rank
	acc  *gb.Accuracy // accuracy override (multipole kernels)
}{
	{name: "serial"},
	{name: "cilk4", p: 4},
	{name: "mpi4", P: 4},
	{name: "hybrid2x2", P: 2, p: 2},
	// Monopole at the default ε: the paper's literal Fig. 2/3 scheme.
	{name: "serial-p0", acc: &gb.Accuracy{EpsBorn: 0.9, EpsEpol: 0.9, QuadOrder: 1, Order: gb.OrderMonopole}},
	// Quadrupole at loosened ε: the far end of the tuner's frontier —
	// the acceptance point that must beat serial-p0 on wall time for the
	// large molecules (see EXPERIMENTS.md, work/precision grid).
	{name: "serial-p2loose", acc: &gb.Accuracy{EpsBorn: 2.0, EpsEpol: 2.0, BinWidth: 0.2, QuadOrder: 1, Order: gb.OrderQuadrupole}},
}

// CollectTrajectory runs the roster × layout grid and assembles the
// trajectory. Each kernel runs `repeats` times and keeps the minimum
// wall time; the first repeat of every kernel feeds one shared recorder
// whose counter-side histogram summaries become the Hists section
// (deterministic: every contribution is a workload invariant).
func CollectTrajectory(o Options, label string, repeats int) (*Trajectory, error) {
	o = o.withDefaults()
	if repeats < 1 {
		repeats = 1
	}
	rec := obs.NewRecorder(perf.StartTimer().Elapsed)
	rec.SetLabel(label)
	traj := &Trajectory{
		Schema:   TrajectorySchemaVersion,
		Label:    label,
		MaxAtoms: o.MaxAtoms,
		Repeats:  repeats,
		Kernels:  []TrajectoryKernel{},
		Hists:    map[string]TrajectoryHist{},
	}
	params := gb.DefaultParams()
	for _, e := range roster(o.MaxAtoms) {
		mol := molecule.ZDockMolecule(e)
		entry, err := systemFor(mol, params)
		if err != nil {
			return nil, err
		}
		for _, lay := range trajectoryLayouts {
			// Accuracy-variant kernels run on a prepared system at the
			// variant point: moments are geometry, built once per molecule
			// like the octrees, not per repeat.
			sys := entry.sys
			if lay.acc != nil {
				var err error
				if sys, err = sys.WithAccuracy(*lay.acc); err != nil {
					return nil, fmt.Errorf("bench: trajectory kernel %s/%s: %w", lay.name, e.Name, err)
				}
			}
			var best *gb.Result
			for rep := 0; rep < repeats; rep++ {
				spec := gb.RunSpec{Processes: lay.P, ThreadsPerProcess: lay.p}
				if rep == 0 && lay.acc == nil {
					spec.Obs = rec
				}
				res, err := sys.Run(spec)
				if err != nil {
					return nil, fmt.Errorf("bench: trajectory kernel %s/%s: %w", lay.name, e.Name, err)
				}
				if best == nil || res.Wall < best.Wall {
					best = res
				}
			}
			b, err := priceOct(o, sys, best)
			if err != nil {
				return nil, err
			}
			ops := best.TotalOps()
			k := TrajectoryKernel{
				Name:     lay.name + "/" + e.Name,
				Atoms:    e.Atoms,
				Ops:      ops,
				WallNs:   best.Wall.Nanoseconds(),
				ModelSec: b.TotalSeconds,
			}
			if ops > 0 {
				k.NsPerOp = float64(k.WallNs) / float64(ops)
			}
			traj.Kernels = append(traj.Kernels, k)
		}
	}
	for _, h := range rec.Histograms() {
		traj.Hists[h.Name] = TrajectoryHist{
			Count: h.Count, Sum: h.Sum, P50: h.P50, P90: h.P90, P99: h.P99,
		}
	}
	return traj, nil
}

// Write emits the trajectory as indented JSON.
func (t *Trajectory) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrajectory parses and schema-checks one trajectory document.
func ReadTrajectory(r io.Reader) (*Trajectory, error) {
	var t Trajectory
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("bench: parsing trajectory: %w", err)
	}
	if t.Schema != TrajectorySchemaVersion {
		return nil, fmt.Errorf("bench: trajectory schema %d, this tool speaks %d", t.Schema, TrajectorySchemaVersion)
	}
	return &t, nil
}

// DiffOptions are benchdiff's thresholds.
type DiffOptions struct {
	// MaxKernelRatio is the host-normalized ns/op ratio above which a
	// kernel is a regression. Zero means the default 1.6.
	MaxKernelRatio float64
	// MaxModelRatio is the deterministic modeled-seconds ratio above
	// which a kernel is a regression. Zero means the default 1.05.
	MaxModelRatio float64
	// MinWallNs exempts kernels faster than this from the wall-time gate
	// (their ns/op is noise-dominated; they still gate on Ops and
	// ModelSec). Zero means the default 1ms.
	MinWallNs int64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.MaxKernelRatio <= 0 {
		o.MaxKernelRatio = 1.6
	}
	if o.MaxModelRatio <= 0 {
		o.MaxModelRatio = 1.05
	}
	if o.MinWallNs <= 0 {
		o.MinWallNs = int64(1e6)
	}
	return o
}

// DiffFinding is one benchdiff result line.
type DiffFinding struct {
	Kernel string
	Detail string
}

func (f DiffFinding) String() string { return f.Kernel + ": " + f.Detail }

// Diff is the outcome of comparing two trajectories.
type Diff struct {
	// Regressions fail the gate (nonzero benchdiff exit).
	Regressions []DiffFinding
	// Notes are informational (new kernels, skipped comparisons).
	Notes []string
	// Added and Removed name the kernels present in only one trajectory,
	// in input order. Added kernels are informational (a baseline will
	// exist after the next regeneration); removed kernels additionally
	// fail the gate — a benchmark that silently vanishes is how coverage
	// rots.
	Added   []string
	Removed []string
	// HostRatio is the geometric-mean ns/op ratio new/old over the
	// gated kernels — the host-speed factor the per-kernel gate divides
	// out.
	HostRatio float64
}

// DiffTrajectories compares a new trajectory against an old baseline.
// See the package comment on the three signal classes; the wall-time
// gate divides every kernel's ns/op ratio by the geometric mean ratio so
// a uniformly slower host cancels while a single regressed kernel
// stands out.
func DiffTrajectories(old, new *Trajectory, opt DiffOptions) Diff {
	opt = opt.withDefaults()
	d := Diff{HostRatio: 1}
	oldByName := make(map[string]TrajectoryKernel, len(old.Kernels))
	for _, k := range old.Kernels {
		oldByName[k.Name] = k
	}
	newNames := make(map[string]bool, len(new.Kernels))

	// First pass: deterministic gates + collect wall ratios.
	type ratioEntry struct {
		name  string
		ratio float64
	}
	var ratios []ratioEntry
	logSum := 0.0
	for _, nk := range new.Kernels {
		newNames[nk.Name] = true
		ok, found := oldByName[nk.Name]
		if !found {
			d.Added = append(d.Added, nk.Name)
			d.Notes = append(d.Notes, "new kernel "+nk.Name+" (no baseline)")
			continue
		}
		if nk.Ops != ok.Ops {
			d.Regressions = append(d.Regressions, DiffFinding{nk.Name,
				fmt.Sprintf("workload drift: ops %d -> %d (regenerate the baseline if intended)", ok.Ops, nk.Ops)})
		}
		if ok.ModelSec > 0 && nk.ModelSec > ok.ModelSec*opt.MaxModelRatio {
			d.Regressions = append(d.Regressions, DiffFinding{nk.Name,
				fmt.Sprintf("modeled time %.4gs -> %.4gs (x%.3f > %.3f, deterministic)",
					ok.ModelSec, nk.ModelSec, nk.ModelSec/ok.ModelSec, opt.MaxModelRatio)})
		}
		if ok.WallNs < opt.MinWallNs || nk.WallNs < opt.MinWallNs ||
			ok.NsPerOp <= 0 || nk.NsPerOp <= 0 {
			d.Notes = append(d.Notes, fmt.Sprintf("%s below the %dms wall floor: ns/op not gated",
				nk.Name, opt.MinWallNs/int64(1e6)))
			continue
		}
		r := nk.NsPerOp / ok.NsPerOp
		ratios = append(ratios, ratioEntry{nk.Name, r})
		logSum += math.Log(r)
	}
	for _, k := range old.Kernels {
		if !newNames[k.Name] {
			d.Removed = append(d.Removed, k.Name)
			d.Regressions = append(d.Regressions, DiffFinding{k.Name,
				"kernel disappeared from the new trajectory"})
		}
	}

	// Second pass: host-normalized wall gate.
	if len(ratios) > 0 {
		d.HostRatio = math.Exp(logSum / float64(len(ratios)))
		for _, e := range ratios {
			adj := e.ratio / d.HostRatio
			if adj > opt.MaxKernelRatio {
				d.Regressions = append(d.Regressions, DiffFinding{e.name,
					fmt.Sprintf("ns/op x%.3f vs baseline (x%.3f after host normalization, gate %.3f)",
						e.ratio, adj, opt.MaxKernelRatio)})
			}
		}
	}

	// Histogram drift: the summaries are deterministic workload
	// invariants, so any change is the ops-drift class of finding.
	for _, name := range obs.SortedKeys(old.Hists) {
		oh := old.Hists[name]
		nh, found := new.Hists[name]
		if !found {
			d.Regressions = append(d.Regressions, DiffFinding{"hist " + name,
				"histogram disappeared from the new trajectory"})
			continue
		}
		if nh != oh {
			d.Regressions = append(d.Regressions, DiffFinding{"hist " + name,
				fmt.Sprintf("workload drift: count/sum/quantiles %+v -> %+v (regenerate the baseline if intended)", oh, nh)})
		}
	}
	for _, name := range obs.SortedKeys(new.Hists) {
		if _, found := old.Hists[name]; !found {
			d.Notes = append(d.Notes, "new histogram "+name+" (no baseline)")
		}
	}
	return d
}
