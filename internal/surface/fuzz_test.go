package surface

import (
	"encoding/binary"
	"math"
	"testing"

	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
)

// fuzzAtomBytes is one atom's encoding in a FuzzBuildSurface input: three
// little-endian float64 coordinates and a radius byte.
const fuzzAtomBytes = 25

// decodeFuzzMolecule reads a config selector byte and then up to 48 atoms.
// The selector byte c picks referenceConfigs[c % 4] and a second rule
// degree, c / 4 % 8 + 1. Coordinates are finite and within ±5e299, so
// spans reach 1e300; a radius byte b maps to (b+1)/64 Å, in (0, 4].
func decodeFuzzMolecule(data []byte) (m *molecule.Molecule, cfg Config, degree2 int) {
	if len(data) == 0 {
		return &molecule.Molecule{Name: "fuzz"}, DefaultConfig(), 2
	}
	cfg = referenceConfigs[int(data[0])%len(referenceConfigs)]
	degree2 = int(data[0])/len(referenceConfigs)%8 + 1
	data = data[1:]
	m = &molecule.Molecule{Name: "fuzz"}
	coord := func(b []byte) float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(v) {
			return 0
		}
		return math.Max(-5e299, math.Min(v, 5e299))
	}
	for len(data) >= fuzzAtomBytes && len(m.Atoms) < 48 {
		m.Atoms = append(m.Atoms, molecule.Atom{
			Pos:    geom.V(coord(data[0:8]), coord(data[8:16]), coord(data[16:24])),
			Radius: (float64(data[24]) + 1) / 64,
		})
		data = data[fuzzAtomBytes:]
	}
	return m, cfg, degree2
}

// encodeFuzzMolecule is decodeFuzzMolecule's inverse for seed inputs
// (radii are rounded to the nearest 1/64 Å).
func encodeFuzzMolecule(m *molecule.Molecule, config byte) []byte {
	out := []byte{config}
	for _, a := range m.Atoms {
		for _, v := range []float64{a.Pos.X, a.Pos.Y, a.Pos.Z} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		out = append(out, byte(max(1, min(256, math.Round(a.Radius*64)))-1))
	}
	return out
}

// FuzzBuildSurface: no molecule of up to 48 atoms panics the sampler or
// exhausts memory, however far apart its atoms are. Build, and a
// two-worker cull emitted at the config's degree and at a second one,
// equal the reference sampler bit for bit.
func FuzzBuildSurface(f *testing.F) {
	const far = 9999.999
	pair := &molecule.Molecule{Atoms: []molecule.Atom{
		{Pos: geom.V(-far, -far, -far), Radius: 1.5},
		{Pos: geom.V(far, far, far), Radius: 1.5},
	}}
	roster := molecule.ZDockMolecule(molecule.ZDockRoster()[0])
	roster.Atoms = roster.Atoms[:48]
	for i, m := range []*molecule.Molecule{pair, molecule.Globule("globule", 20, 7), roster} {
		// Config i; second degree 2, 4 and 6.
		f.Add(encodeFuzzMolecule(m, byte(i+len(referenceConfigs)*(2*i+1))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, cfg, degree2 := decodeFuzzMolecule(data)
		wants, err := referenceBuilds(m, cfg, []int{cfg.RuleDegree, degree2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := surfaceDiff(got, wants[0]); d != "" {
			t.Fatalf("%+v: Build: %s", cfg, d)
		}
		workers := min(2, max(1, m.NumAtoms()))
		c, err := Cull(m, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for d, deg := range []int{cfg.RuleDegree, degree2} {
			got, err := c.Emit(deg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if diff := surfaceDiff(got, wants[d]); diff != "" {
				t.Fatalf("%+v: Emit(%d) on %d workers: %s", cfg, deg, workers, diff)
			}
		}
	})
}
