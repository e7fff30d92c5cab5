package molecule

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gbpolar/internal/geom"
)

func TestXYZRQRoundTrip(t *testing.T) {
	m := Globule("round trip", 200, 11)
	var buf bytes.Buffer
	if err := WriteXYZRQ(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZRQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name {
		t.Errorf("name = %q", got.Name)
	}
	if got.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atoms = %d want %d", got.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		if math.Abs(got.Atoms[i].Pos.X-m.Atoms[i].Pos.X) > 1e-5 ||
			math.Abs(got.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-5 ||
			math.Abs(got.Atoms[i].Radius-m.Atoms[i].Radius) > 1e-3 {
			t.Fatalf("atom %d mismatch: %+v vs %+v", i, got.Atoms[i], m.Atoms[i])
		}
	}
}

func TestXYZRQComments(t *testing.T) {
	in := "2 demo\n# comment\n0 0 0 1.5 0.1\n\n1 0 0 1.2 -0.1\n"
	m, err := ReadXYZRQ(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAtoms() != 2 {
		t.Fatalf("atoms = %d", m.NumAtoms())
	}
}

func TestXYZRQErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"x name\n",             // bad count
		"2 demo\n0 0 0 1 0\n",  // count mismatch
		"1 demo\n0 0 0 1\n",    // too few fields
		"1 demo\n0 0 z 1 0\n",  // non-numeric
		"1 demo\n0 0 0 -1 0\n", // invalid radius (Validate)
		"-1 demo\n",            // negative count
	}
	for i, in := range cases {
		if _, err := ReadXYZRQ(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: no error for %q", i, in)
		}
	}
}

func TestPQRRoundTrip(t *testing.T) {
	m := Globule("pqrmol", 150, 13)
	var buf bytes.Buffer
	if err := WritePQR(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPQR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "pqrmol" {
		t.Errorf("name = %q", got.Name)
	}
	if got.NumAtoms() != m.NumAtoms() {
		t.Fatalf("atoms = %d want %d", got.NumAtoms(), m.NumAtoms())
	}
	for i := range m.Atoms {
		if math.Abs(got.Atoms[i].Pos.Dist(m.Atoms[i].Pos)) > 2e-3 ||
			math.Abs(got.Atoms[i].Charge-m.Atoms[i].Charge) > 1e-3 ||
			math.Abs(got.Atoms[i].Radius-m.Atoms[i].Radius) > 1e-3 {
			t.Fatalf("atom %d mismatch", i)
		}
	}
}

func TestPQRErrors(t *testing.T) {
	if _, err := ReadPQR(strings.NewReader("REMARK nothing\nEND\n")); err == nil {
		t.Error("no error for empty PQR")
	}
	if _, err := ReadPQR(strings.NewReader("ATOM 1 C GLY A 1 bad fields here x y\n")); err == nil {
		t.Error("no error for non-numeric PQR")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Globule("file", 100, 17)
	for _, name := range []string{"m.xyzrq", "m.pqr"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumAtoms() != m.NumAtoms() {
			t.Errorf("%s: %d atoms", name, got.NumAtoms())
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.pqr")); err == nil {
		t.Error("no error for missing file")
	}
}

// hugeCountXYZRQ claims three billion atoms in 23 bytes. Preallocating
// from that header asks for a 120 GB block, which ends the process with
// a fatal out-of-memory error instead of a decode error.
const hugeCountXYZRQ = "3000000000 x\n1 2 3 1 0\n"

func TestReadXYZRQHugeHeaderCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ReadXYZRQ(strings.NewReader(hugeCountXYZRQ))
	runtime.ReadMemStats(&after)
	if m != nil || err == nil || !strings.Contains(err.Error(), "header says 3000000000 atoms, file has 1") {
		t.Fatalf("got (%v, %v), want a nil molecule and the count-mismatch error", m, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("decoding %d bytes allocated %d MiB", len(hugeCountXYZRQ), grew>>20)
	}
}

// Both readers accept lines up to 1 MiB and reject longer ones with
// bufio.ErrTooLong, but a small input does not pay for the long-line
// buffer up front.
func TestReadersLineLimit(t *testing.T) {
	for _, tc := range []struct {
		name            string
		read            func(io.Reader) (*Molecule, error)
		head, pad, tail string
	}{
		{"xyzrq", ReadXYZRQ, "1 long\n", "#", "0 0 0 1.5 0.1\n"},
		{"pqr", ReadPQR, "", "REMARK ", "ATOM      1  C   GLY A   1       0.000   0.000   0.000  0.1000 1.5000\n"},
	} {
		doc := func(lineBytes int) string {
			return tc.head + tc.pad + strings.Repeat("x", lineBytes-len(tc.pad)-1) + "\n" + tc.tail
		}
		if m, err := tc.read(strings.NewReader(doc(900 << 10))); err != nil || m.NumAtoms() != 1 {
			t.Errorf("%s: 900 KiB comment line: got (%v, %v), want one atom", tc.name, m, err)
		}
		if m, err := tc.read(strings.NewReader(doc(1<<20 + 1))); m != nil || !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: line over 1 MiB: got (%v, %v), want bufio.ErrTooLong", tc.name, m, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := tc.read(strings.NewReader(tc.head + tc.tail))
		runtime.ReadMemStats(&after)
		if err != nil || m.NumAtoms() != 1 {
			t.Fatalf("%s: one-atom input: got (%v, %v)", tc.name, m, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
			t.Errorf("%s: parsing one atom allocated %d KiB", tc.name, grew>>10)
		}
	}
}

// A valid molecule writes files that read back valid: coordinates that
// fill their PQR column stay separate fields, and radii too small for
// the fixed decimals keep a nonzero value.
func TestWritersKeepExtremeValuesReadable(t *testing.T) {
	m := &Molecule{Name: "extreme", Atoms: []Atom{
		{Pos: geom.V(-1234.5, -100.25, 99999.125), Radius: 1e-9, Charge: 0.5},
		{Pos: geom.V(1, 2, 3), Radius: 1.5, Charge: -0.25},
	}}
	for _, c := range []struct {
		name  string
		write func(io.Writer, *Molecule) error
		read  func(io.Reader) (*Molecule, error)
	}{{"xyzrq", WriteXYZRQ, ReadXYZRQ}, {"pqr", WritePQR, ReadPQR}} {
		var buf bytes.Buffer
		if err := c.write(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := c.read(&buf)
		if err != nil {
			t.Fatalf("%s: written molecule does not read back: %v", c.name, err)
		}
		for i, a := range got.Atoms {
			if a.Pos.Sub(m.Atoms[i].Pos).Norm() > 1e-3 || a.Radius != m.Atoms[i].Radius {
				t.Errorf("%s atom %d: read %+v, wrote %+v", c.name, i, a, m.Atoms[i])
			}
		}
	}
}
