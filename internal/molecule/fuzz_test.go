package molecule

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzReadXYZRQ: no input panics or aborts the XYZRQ decoder, a failed
// decode returns no molecule, and a decoded molecule reaches a fixed
// point after one write-read round.
func FuzzReadXYZRQ(f *testing.F) {
	fuzzDecoder(f, ReadXYZRQ, WriteXYZRQ)
}

// FuzzReadPQR is FuzzReadXYZRQ for the PQR decoder.
func FuzzReadPQR(f *testing.F) {
	fuzzDecoder(f, ReadPQR, WritePQR)
}

// fuzzDecoder seeds the corpus with the writer's output for a 20-atom
// globule and the smallest roster molecule, plus the huge-count header,
// and checks the decoder contract on every input.
func fuzzDecoder(f *testing.F, read func(io.Reader) (*Molecule, error), write func(io.Writer, *Molecule) error) {
	for _, m := range []*Molecule{Globule("globule", 20, 7), ZDockMolecule(ZDockRoster()[0])} {
		var buf bytes.Buffer
		if err := write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(hugeCountXYZRQ))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := read(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("failed decode (%v) returned a molecule", err)
			}
			return
		}
		round := func(m *Molecule) *Molecule {
			var buf bytes.Buffer
			if err := write(&buf, m); err != nil {
				t.Fatal(err)
			}
			out, err := read(&buf)
			if err != nil {
				t.Fatalf("written molecule does not decode: %v\n%s", err, buf.Bytes())
			}
			return out
		}
		once := round(m)
		if twice := round(once); !reflect.DeepEqual(once, twice) {
			t.Fatalf("no fixed point after one write-read round:\n%+v\n%+v", once, twice)
		}
	})
}
