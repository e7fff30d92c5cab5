package main

import (
	"gbpolar/internal/gb"
	"gbpolar/internal/obs/critpath"
	"gbpolar/internal/simmpi"
)

// The traced loops read the spans the gb drivers and simmpi already open
// and the pair counters they already count; the benchmark adds no span
// inside the program, only timings around its calls.

// phaseMetrics maps the drivers' phase spans to their per-layer metrics.
var phaseMetrics = map[string]string{
	"approx-integrals":        "gb.approx_integrals_ms",
	"push-integrals-to-atoms": "gb.push_ms",
	"octree-build":            "gb.epol_aggregates_ms",
	"approx-epol":             "gb.approx_epol_ms",
}

// addLayers attributes one traced solve from its spans: each phase's
// time (mean over ranks, the collectives inside it included), the time in
// collectives, and the critical path's comm and idle shares. f
// normalizes raw times. It returns the phases' total normalized ms.
func (m *means) addLayers(run critpath.Run, f float64) float64 {
	rep := critpath.Analyze(run, 1)
	ranks := float64(rep.Ranks)
	perRankMs := func(us int64) float64 { return frac(float64(us)/1000, ranks) * f }
	phases := map[string]float64{}
	total := 0.0
	for _, c := range rep.Phases {
		if name, ok := phaseMetrics[c.Phase]; ok {
			v := perRankMs(c.ComputeUs + c.CommUs)
			phases[name] += v
			total += v
		}
	}
	for _, name := range phaseMetrics {
		m.add(name, phases[name])
	}
	var comm, idle int64
	for _, l := range rep.PerRank {
		comm += l.CommUs
		idle += l.IdleUs
	}
	m.add("simmpi.comm_ms", perRankMs(comm))
	m.add("critpath.comm_frac", frac(float64(rep.CritCommUs), float64(rep.WallUs)))
	m.add("critpath.idle_frac", frac(float64(idle), ranks*float64(rep.WallUs)))
	return total
}

// addSolve adds one traced gb solve: addLayers, plus its work counts —
// operations per atom, normalized ns per operation over solveMs, the
// near-field shares of both phases' pair evaluations — and its traffic.
func (m *means) addSolve(run critpath.Run, res *gb.Result, counters map[string]int64, atoms int, solveMs, f float64) float64 {
	covered := m.addLayers(run, f)
	ops := float64(res.TotalOps())
	m.add("gb.ops_per_atom", frac(ops, float64(atoms)))
	m.add("gb.ns_per_op", frac(solveMs*1e6, ops))
	m.add("gb.born_near_frac", nearFrac(counters, "born"))
	m.add("gb.epol_near_frac", nearFrac(counters, "epol"))
	m.addTraffic(res.Traffic)
	return covered
}

// nearFrac is the near-field share of one phase's pair evaluations.
func nearFrac(c map[string]int64, phase string) float64 {
	near, far := float64(c["pairs."+phase+".near"]), float64(c["pairs."+phase+".far"])
	return frac(near, near+far)
}

// addTraffic adds one solve's collective calls and payload volume.
func (m *means) addTraffic(t simmpi.Stats) {
	calls, bytes := int64(0), t.P2PBytes
	for _, c := range t.Collectives {
		calls += c.Calls
		bytes += c.Bytes
	}
	m.add("simmpi.collectives_per_solve", float64(calls))
	m.add("simmpi.kib_per_solve", float64(bytes)/1024)
}
