package bench

import (
	"fmt"
	"math"

	"gbpolar/internal/gb"
	"gbpolar/internal/tune"
)

// workprec is the PR 8 work/precision curve: the accuracy grid the
// auto-tuner searches — expansion order p × the far-field ε ladder, bin
// width tied to ε — swept on the ablation molecule, each point reporting
// the model's error bound, the measured error against the naïve energy
// (naïve r⁶ Born radii and the naïve energy sum on the same surface), and
// the modeled serial time. The table is the evidence behind two claims
// of DESIGN.md §10: the per-term bound contains the measured error
// everywhere, and a higher order does less work at the same ε (the
// multipole trade: moments are cheap, near-field pairs are not), though
// not with less error (EXPERIMENTS.md).
func workprec(o Options) (*Table, error) {
	mol := ablationMolecule()
	entry, err := systemFor(mol, paperParams())
	if err != nil {
		return nil, err
	}
	naive := entry.naiveResult().Energy

	// The system is built at the default point, which anchors the
	// speedup column.
	defRes, err := entry.sys.Run(gb.RunSpec{})
	if err != nil {
		return nil, err
	}
	defCost, err := priceOct(o, entry.sys, defRes)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "Work/precision grid",
		Title: fmt.Sprintf("Order p × ε vs error against the naïve energy and modeled time (%d atoms)", mol.NumAtoms()),
		Notes: []string{
			"the grid tune.Select searches: bin width = min(ε/4, 0.2), quadrature degree fixed at 1",
			"bound %: tune.RelErrorBound — the per-term model; err %: measured against the naïve energy",
			"speedup: modeled serial seconds of the calibrated default (p = 1, ε = 0.9) over this point's",
		},
		Header: []string{"p", "eps", "Bound %", "Err %", "Total ops", "Modeled s", "Speedup"},
	}
	for ord := gb.OrderMonopole; ord <= gb.OrderQuadrupole; ord++ {
		for _, eps := range tune.DefaultEpsScales() {
			acc := gb.Accuracy{
				EpsBorn: eps, EpsEpol: eps,
				BinWidth:  math.Min(eps/4, 0.2),
				QuadOrder: 1, Order: ord,
			}
			ws, err := entry.sys.WithAccuracy(acc)
			if err != nil {
				return nil, err
			}
			res, err := ws.Run(gb.RunSpec{})
			if err != nil {
				return nil, err
			}
			b, err := priceOct(o, entry.sys, res)
			if err != nil {
				return nil, err
			}
			relErr := math.Abs(res.Epol-naive) / math.Abs(naive)
			t.AddRow(fmt.Sprintf("%d", ord),
				fmt.Sprintf("%.3f", eps),
				fmt.Sprintf("%.3f", 100*tune.RelErrorBound(acc)),
				fmt.Sprintf("%.4f", 100*relErr),
				fmt.Sprintf("%d", res.TotalOps()),
				fmt.Sprintf("%.3f", b.TotalSeconds),
				fmt.Sprintf("%.2f×", defCost.TotalSeconds/b.TotalSeconds))
		}
	}
	return t, nil
}
