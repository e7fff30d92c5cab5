package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"gbpolar/internal/molecule"
)

// decodeRequest decodes a POST /v1/jobs body the way handleJobs does.
func decodeRequest(data []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzJobRequest decodes arbitrary bytes as a job request, as the POST
// handler does, and runs admission's validation on what decodes. No input
// may panic; a rejection must be a typed input error; an accepted request
// must have finite coordinates, positive finite radii and no more threads
// than atoms; and every decoded request must survive json.Marshal and a
// second decode unchanged.
func FuzzJobRequest(f *testing.F) {
	seed := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	spec := molSpec(testMol(10, 3))
	seed(JobRequest{Molecule: spec})
	seed(JobRequest{Molecule: spec, Tenant: "acme", DeadlineMS: 1, Seed: 7, TargetErrorKcal: 1.0})
	seed(JobRequest{Molecule: molSpec(testMol(199, 11)), Processes: 2, Threads: 1 << 40})
	bad := spec
	bad.Atoms = append([]AtomSpec(nil), spec.Atoms...)
	bad.Atoms[4].Radius = -1
	seed(JobRequest{Molecule: bad})
	seed(jobRecord{ID: "j-torn", Req: JobRequest{Molecule: molSpec(testMol(30, 5)), Processes: 2}})
	f.Add([]byte(`{"molecule":{"atoms":[]},"surprise":1}`))
	f.Add([]byte(`{"molecule":{"name":"far","atoms":[{"x":-9999.999,"y":-9999.999,"z":-9999.999,"radius":1.5,"charge":1},{"x":9999.999,"y":9999.999,"z":9999.999,"radius":1.5,"charge":-1}]},"threads":3}`))

	cfg := Config{}
	cfg.fillDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return // the handler's typed malformed_request
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request: %v", err)
		}
		back, err := decodeRequest(enc)
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip: %+v → %s → %+v (%v)", req, enc, back, err)
		}
		mol, err := validateRequest(&req, cfg.MaxAtoms)
		if err != nil {
			var ie *molecule.InputError
			if !errors.Is(err, molecule.ErrInvalidInput) || !errors.As(err, &ie) || ie.Field == "" {
				t.Fatalf("rejection %v is not a typed input error naming its field", err)
			}
			return
		}
		if mol.NumAtoms() == 0 || mol.NumAtoms() > cfg.MaxAtoms {
			t.Fatalf("accepted %d atoms, limit %d", mol.NumAtoms(), cfg.MaxAtoms)
		}
		for i, a := range mol.Atoms {
			if !a.Pos.IsFinite() || !(a.Radius > 0) || math.IsInf(a.Radius, 0) {
				t.Fatalf("accepted atom %d at %v with radius %v", i, a.Pos, a.Radius)
			}
		}
		if req.Threads > mol.NumAtoms() {
			t.Fatalf("accepted %d threads for %d atoms", req.Threads, mol.NumAtoms())
		}
	})
}
