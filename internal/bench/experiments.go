package bench

import (
	"fmt"
	"sort"

	"gbpolar/internal/baselines"
	"gbpolar/internal/gb"
	"gbpolar/internal/molecule"
	"gbpolar/internal/surface"
)

// experimentFn produces one table.
type experimentFn func(o Options) (*Table, error)

// experiments maps experiment ids (DESIGN.md §4) to their generators.
var experiments = map[string]experimentFn{
	"table1":            table1,
	"table2":            table2,
	"fig5":              fig5,
	"fig6":              fig6,
	"fig7":              fig7,
	"fig8a":             fig8a,
	"fig8b":             fig8b,
	"fig9":              fig9,
	"fig10":             fig10,
	"fig11":             fig11,
	"memory":            memoryExp,
	"workprec":          workprec,
	"ablation-division": ablationDivision,
	"ablation-math":     ablationMath,
	"ablation-leaf":     ablationLeaf,
	"ablation-binning":  ablationBinning,
	"ablation-stealing": ablationStealing,
	"ablation-dynamic":  ablationDynamic,
	"ablation-integral": ablationIntegral,
	"ablation-nblist":   ablationNblist,
	"ablation-distdata": ablationDistData,
}

// IDs returns the experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run generates the table for one experiment id.
func Run(id string, o Options) (*Table, error) {
	fn, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return fn(o.withDefaults())
}

// table1 reproduces Table I: the simulation environment, here the
// machine model the pricing uses.
func table1(o Options) (*Table, error) {
	m := o.Machine
	t := &Table{
		ID:     "Table I",
		Title:  "Simulation environment (performance-model machine)",
		Header: []string{"Attribute", "Property"},
	}
	t.AddRow("Machine", m.Name)
	t.AddRow("Nodes", fmt.Sprintf("%d", m.Nodes))
	t.AddRow("Cores/node", fmt.Sprintf("%d", m.CoresPerNode))
	t.AddRow("Per-core pairwise rate", fmt.Sprintf("%.0fe6 interactions/s", m.OpsPerSecond/1e6))
	t.AddRow("L3 per node", fmt.Sprintf("%d MB", m.L3BytesPerNode>>20))
	t.AddRow("RAM per node", fmt.Sprintf("%d GB", m.RAMBytesPerNode>>30))
	t.AddRow("Interconnect ts", fmt.Sprintf("%.2g s", m.Ts))
	t.AddRow("Interconnect tw", fmt.Sprintf("%.3g s/byte", m.Tw))
	t.AddRow("Intra-node comm factor", fmt.Sprintf("%.2f", m.IntraNodeFactor))
	t.AddRow("Parallelism platform", "sched (work stealing) + simmpi (message passing)")
	return t, nil
}

// table2 reproduces Table II: packages, GB models and parallelism.
func table2(o Options) (*Table, error) {
	t := &Table{
		ID:     "Table II",
		Title:  "Packages with GB models and types of parallelism used",
		Header: []string{"Package", "GB-Model", "Parallelism"},
	}
	modelName := map[baselines.BornModel]string{
		baselines.HCT:      "HCT",
		baselines.OBC:      "OBC",
		baselines.StillPW:  "STILL",
		baselines.VolumeR6: "STILL (volume r6)",
	}
	for _, sp := range baselines.Registry() {
		t.AddRow(sp.Name, modelName[sp.Model], sp.Parallel)
	}
	t.AddRow("OCT_CILK", "STILL (surface r6)", "Shared (work stealing)")
	t.AddRow("OCT_MPI", "STILL (surface r6)", "Distributed (message passing)")
	t.AddRow("OCT_MPI+CILK", "STILL (surface r6)", "Distributed+Shared (hybrid)")
	t.AddRow("Naïve", "STILL (surface r6)", "Serial")
	return t, nil
}

// --- shared workload helpers ------------------------------------------

// paperParams returns the library defaults at the paper-era leaf
// capacities, 8 atoms and 32 q-points, which every experiment but the
// leaf-capacity sweep builds its systems with (DESIGN.md §6.1): fig5 and
// fig6 divide the scaled BTV over up to 432 ranks and node division needs
// a leaf per rank, and the performance model prices every op alike, so
// its figures hold only at the leaf sizes it was calibrated on.
func paperParams() gb.Params { return leafParams([2]int{8, 32}) }

// leafParams returns the library defaults at leaf capacities pt, atoms ×
// q-points.
func leafParams(pt [2]int) gb.Params {
	p := gb.DefaultParams()
	p.LeafAtoms, p.LeafQPoints = pt[0], pt[1]
	return p
}

// sysCacheEntry caches a prepared system and its naive reference (the
// expensive quadratic evaluation is shared by fig8a, fig9, fig10, fig11).
type sysCacheEntry struct {
	sys      *gb.System
	mol      *molecule.Molecule
	naive    *baselines.Result
	naiveSet bool
}

var sysCache = map[string]*sysCacheEntry{}

// systemFor builds (or recalls) the prepared system for a molecule.
func systemFor(mol *molecule.Molecule, params gb.Params) (*sysCacheEntry, error) {
	key := fmt.Sprintf("%s/%d/%+v", mol.Name, mol.NumAtoms(), params)
	if e, ok := sysCache[key]; ok {
		return e, nil
	}
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sys, err := gb.NewSystem(mol, surf, params)
	if err != nil {
		return nil, err
	}
	e := &sysCacheEntry{sys: sys, mol: mol}
	sysCache[key] = e
	return e, nil
}

// naiveFor returns the cached naive reference for the entry.
func (e *sysCacheEntry) naiveResult() *baselines.Result {
	if !e.naiveSet {
		e.naive = baselines.NaiveResult(e.sys)
		e.naiveSet = true
	}
	return e.naive
}

// roster returns the ZDock entries capped by scale-independent MaxAtoms
// (0 = all).
func roster(maxAtoms int) []molecule.BenchmarkEntry {
	all := molecule.ZDockRoster()
	if maxAtoms <= 0 {
		return all
	}
	var out []molecule.BenchmarkEntry
	for _, e := range all {
		if e.Atoms <= maxAtoms {
			out = append(out, e)
		}
	}
	return out
}
