package gb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"gbpolar/internal/obs"
)

// Phase checkpoints: after each completed algorithm phase the
// distributed driver can serialize a deterministic, versioned,
// checksummed snapshot of the run's world-global state through a
// CheckpointSink, and a later run can resume from the snapshot,
// re-entering the pipeline at the first incomplete phase.
//
// Three properties make resume exact (asserted by resume_test.go):
//
//   - the payload is world-global, not per-rank: after a phase's
//     collective every rank holds the full merged state, so a snapshot
//     resumes under ANY process count — in particular the supervisor's
//     shrunken-membership rung;
//   - the snapshot carries the counter-side observability state
//     (obs.CounterSnapshot), so a resumed run's Summary is byte-identical
//     to an uninterrupted run's;
//   - saving is communication-silent: the coordination uses simmpi.Sync
//     (not a fault point, no traffic counters), so a run with a sink
//     produces bitwise-identical numbers and summaries to one without.
//
// The configuration tag deliberately EXCLUDES the ε parameters: the
// supervisor's relax-ε rung resumes earlier-phase snapshots under
// relaxed parameters, and the induced accuracy loss is priced into the
// returned ErrorBound instead of rejected. That acceptance is
// one-directional: a snapshot records the ε it was computed under
// (format v2), and resume rejects a snapshot LOOSER than the resuming
// system — otherwise a run shed onto relaxed ε, killed, and resumed at
// full accuracy would silently launder relaxed-phase data into a result
// that reports itself non-degraded. The supervisor's drop-stale-
// checkpoint path turns the rejection into a recompute from scratch.

// CheckpointPhase identifies the last completed phase of a snapshot.
type CheckpointPhase int

const (
	// PhaseNone is the zero value: no phase completed (not a valid
	// snapshot phase).
	PhaseNone CheckpointPhase = iota
	// PhaseIntegrals: the merged Born surface integrals (Fig. 4 Step 3).
	// Payload: the flattened accumulator (node sums, node gradients, atom
	// sums).
	PhaseIntegrals
	// PhaseRadii: the complete Born radii (Fig. 4 Step 5). Payload: one
	// radius per atom.
	PhaseRadii
	// PhaseAggregates: the energy-phase octree aggregates are built.
	// Payload: the radii again — the aggregates are a cheap deterministic
	// function of them and are rebuilt on resume rather than serialized.
	PhaseAggregates
	// PhaseEpol: the finished run. Payload: the radii plus the energy,
	// degraded flag, and error bound.
	PhaseEpol
)

// String implements fmt.Stringer.
func (p CheckpointPhase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseIntegrals:
		return "integrals"
	case PhaseRadii:
		return "radii"
	case PhaseAggregates:
		return "aggregates"
	case PhaseEpol:
		return "epol"
	}
	return fmt.Sprintf("CheckpointPhase(%d)", int(p))
}

// Checkpoint is one decoded phase snapshot.
type Checkpoint struct {
	// Phase is the last completed phase.
	Phase CheckpointPhase
	// Processes is the world size of the run that saved the snapshot. The
	// payload is world-global, so a resume may use a different P.
	Processes int
	// Live and Lost are the agreed rank membership at save time — the
	// supervisor's shrink rung resumes with P = len(Live).
	Live, Lost []int
	// ConfigTag fingerprints the System the snapshot belongs to (atom and
	// quadrature counts, division, integral form, math mode, leaf
	// capacities, and a molecule content probe — ε excluded, see above).
	ConfigTag uint32
	// EpsBorn and EpsEpol are the approximation tolerances the saving run
	// computed under. Resume accepts a snapshot at-or-tighter than the
	// resuming system (the accuracy loss of a tighter snapshot is zero;
	// of an equal one, already priced) and rejects a looser one — relaxed
	// phase data must not resume into a run that will report full
	// accuracy. Zero means unrecorded (a version-1 snapshot): the check
	// is skipped for compatibility.
	EpsBorn, EpsEpol float64
	// Payload is the phase's numeric state (see the phase constants).
	Payload []float64
	// Obs is the counter-side observability state at save time; restored
	// into the resumed run's recorder so summaries stay identical. Nil
	// when the saving run had no recorder.
	Obs *obs.CounterSnapshot
}

// CheckpointSink receives encoded snapshots as phases complete. Save is
// called by exactly one rank at a time (the lowest live rank, inside a
// synchronization bracket), never concurrently. Returning an error
// aborts the run — a sink that cannot persist is a failed run, not a
// silent loss of restart capability.
type CheckpointSink interface {
	Save(phase CheckpointPhase, encoded []byte) error
}

// Binary format (little-endian): "GBCP" magic, u32 version, then the
// fields in Checkpoint order, then a CRC32 (IEEE) of everything before
// it. Strings are u32 length + bytes; slices are u32 count + elements;
// floats are IEEE-754 bit patterns (the payload must survive bit-exact).
const (
	checkpointMagic   = "GBCP"
	checkpointVersion = 2 // v2 adds EpsBorn/EpsEpol after ConfigTag; v1 still decodes
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendIntSlice(b []byte, xs []int) []byte {
	b = appendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendI64(b, int64(x))
	}
	return b
}

// Encode serializes the checkpoint. The encoding is deterministic: map-
// backed sections render in sorted key order (obs.SortedKeys), so the
// same snapshot always encodes to the same bytes — byte-diffable
// checkpoints are part of the resume-identity test surface.
func (ck *Checkpoint) Encode() []byte {
	b := []byte(checkpointMagic)
	b = appendU32(b, checkpointVersion)
	b = appendI64(b, int64(ck.Phase))
	b = appendI64(b, int64(ck.Processes))
	b = appendIntSlice(b, ck.Live)
	b = appendIntSlice(b, ck.Lost)
	b = appendU32(b, ck.ConfigTag)
	b = appendFloat(b, ck.EpsBorn)
	b = appendFloat(b, ck.EpsEpol)
	b = appendU32(b, uint32(len(ck.Payload)))
	for _, v := range ck.Payload {
		b = appendFloat(b, v)
	}
	if ck.Obs == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		s := ck.Obs
		b = appendU32(b, uint32(len(s.Counters)))
		for _, name := range obs.SortedKeys(s.Counters) {
			b = appendString(b, name)
			b = appendI64(b, s.Counters[name])
		}
		b = appendU32(b, uint32(len(s.Hists)))
		for _, name := range obs.SortedKeys(s.Hists) {
			h := s.Hists[name]
			b = appendString(b, name)
			b = appendI64(b, h.Count)
			b = appendI64(b, h.Sum)
			b = appendU32(b, uint32(len(h.Buckets)))
			for _, v := range h.Buckets {
				b = appendI64(b, v)
			}
		}
		b = appendU32(b, uint32(len(s.SpanCounts)))
		for _, name := range obs.SortedKeys(s.SpanCounts) {
			b = appendString(b, name)
			b = appendI64(b, s.SpanCounts[name])
		}
	}
	return appendU32(b, crc32.ChecksumIEEE(b))
}

// checkpointReader is a bounds-checked cursor over an encoded snapshot.
type checkpointReader struct {
	b   []byte
	off int
	err error
}

func (r *checkpointReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("gb: truncated checkpoint (want %d bytes at offset %d of %d)", n, r.off, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *checkpointReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *checkpointReader) i64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *checkpointReader) float() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (r *checkpointReader) str() string {
	n := int(r.u32())
	if b := r.take(n); b != nil {
		return string(b)
	}
	return ""
}

func (r *checkpointReader) intSlice() []int {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.i64()))
	}
	return out
}

// DecodeCheckpoint parses and verifies an encoded snapshot: magic,
// version, structural bounds, and the trailing CRC (a corrupted or
// truncated checkpoint file is an error, never a silently wrong resume).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("gb: checkpoint too short (%d bytes)", len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("gb: bad checkpoint magic %q (want %q)", data[:len(checkpointMagic)], checkpointMagic)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("gb: checkpoint checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	r := &checkpointReader{b: body, off: len(checkpointMagic)}
	v := r.u32()
	if v != 1 && v != checkpointVersion {
		return nil, fmt.Errorf("gb: unsupported checkpoint version %d (want 1..%d)", v, checkpointVersion)
	}
	ck := &Checkpoint{}
	ck.Phase = CheckpointPhase(r.i64())
	ck.Processes = int(r.i64())
	ck.Live = r.intSlice()
	ck.Lost = r.intSlice()
	ck.ConfigTag = r.u32()
	if v >= 2 {
		ck.EpsBorn = r.float()
		ck.EpsEpol = r.float()
	}
	n := int(r.u32())
	if r.err == nil && n > 0 {
		ck.Payload = make([]float64, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ck.Payload = append(ck.Payload, r.float())
		}
	}
	if flag := r.take(1); len(flag) == 1 && flag[0] == 1 {
		s := &obs.CounterSnapshot{
			Counters:   make(map[string]int64),
			Hists:      make(map[string]obs.HistState),
			SpanCounts: make(map[string]int64),
		}
		for i, cnt := 0, int(r.u32()); i < cnt && r.err == nil; i++ {
			name := r.str()
			s.Counters[name] = r.i64()
		}
		for i, cnt := 0, int(r.u32()); i < cnt && r.err == nil; i++ {
			name := r.str()
			h := obs.HistState{Count: r.i64(), Sum: r.i64()}
			nb := int(r.u32())
			if r.err == nil && nb > 0 {
				h.Buckets = make([]int64, 0, nb)
				for j := 0; j < nb && r.err == nil; j++ {
					h.Buckets = append(h.Buckets, r.i64())
				}
			}
			s.Hists[name] = h
		}
		for i, cnt := 0, int(r.u32()); i < cnt && r.err == nil; i++ {
			name := r.str()
			s.SpanCounts[name] = r.i64()
		}
		ck.Obs = s
	}
	if r.err != nil {
		return nil, r.err
	}
	if ck.Phase < PhaseIntegrals || ck.Phase > PhaseEpol {
		return nil, fmt.Errorf("gb: checkpoint names invalid phase %d", int(ck.Phase))
	}
	return ck, nil
}

// configTag fingerprints the system configuration a checkpoint is valid
// for: workload shape, division, integral form, math mode, and leaf
// capacities, plus a cheap molecule content probe (first/last atom
// charge, radius, and position bits). The ε parameters are excluded on
// purpose — see the file comment.
func (s *System) configTag() uint32 {
	h := fnv.New32a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:]) // hash.Hash.Write is documented to never fail
	}
	put(uint64(s.NumAtoms()))
	put(uint64(s.NumQPoints()))
	put(uint64(s.Params.Division))
	put(uint64(s.Params.Integral))
	put(uint64(s.Params.Math))
	put(uint64(s.Params.LeafAtoms))
	put(uint64(s.Params.LeafQPoints))
	for _, i := range []int{0, s.NumAtoms() - 1} {
		a := s.Mol.Atoms[i]
		put(math.Float64bits(a.Charge))
		put(math.Float64bits(a.Radius))
		put(math.Float64bits(s.atomPos[i].X))
	}
	return h.Sum32()
}

// validateResume rejects a snapshot that cannot resume this system: a
// different configuration, an invalid phase, or a payload whose shape
// does not match the phase.
// CanResume reports whether the snapshot can resume this system: nil
// means yes, otherwise the same typed error a Run with Resume set would
// return. The supervisor uses it when an escalation changes the
// expansion order — the integral-phase payload shape depends on the
// order, so a stale snapshot must be dropped (recompute from scratch)
// rather than failing the attempt.
func (s *System) CanResume(ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("gb: nil checkpoint")
	}
	return s.validateResume(ck)
}

func (s *System) validateResume(ck *Checkpoint) error {
	if ck.Phase < PhaseIntegrals || ck.Phase > PhaseEpol {
		return fmt.Errorf("gb: cannot resume from phase %q", ck.Phase)
	}
	if got, want := ck.ConfigTag, s.configTag(); got != want {
		return fmt.Errorf("gb: checkpoint config tag %08x does not match this system (%08x): snapshot belongs to a different workload or parameterization", got, want)
	}
	// ε acceptance is one-directional: an at-or-tighter snapshot resumes
	// (relaxing it further is priced by the caller); a looser one would
	// smuggle relaxed-phase data into a run reporting full accuracy. The
	// slack absorbs float noise from normalized()/Relaxed round trips —
	// real relaxations are ≥1.5×. Zero eps: v1 snapshot, unrecorded.
	const slack = 1 + 1e-9
	if ck.EpsBorn > s.Params.EpsBorn*slack || ck.EpsEpol > s.Params.EpsEpol*slack {
		return fmt.Errorf("gb: checkpoint was computed at looser ε (born %.3g, epol %.3g) than this system requires (born %.3g, epol %.3g): resuming would silently degrade the result",
			ck.EpsBorn, ck.EpsEpol, s.Params.EpsBorn, s.Params.EpsEpol)
	}
	want := 0
	switch ck.Phase {
	case PhaseIntegrals:
		// The integral payload shape depends on the expansion order (the
		// Hessian block exists only at OrderQuadrupole), so an order
		// mismatch — the config tag deliberately excludes accuracy knobs so
		// relaxed retries can reuse snapshots — is caught here.
		want = 4*s.TA.NumNodes() + s.NumAtoms()
		if s.order() == OrderQuadrupole {
			want += 9 * s.TA.NumNodes()
		}
	case PhaseRadii, PhaseAggregates:
		want = s.NumAtoms()
	case PhaseEpol:
		want = s.NumAtoms() + 3
	}
	if len(ck.Payload) != want {
		return fmt.Errorf("gb: %s checkpoint payload has %d values, want %d", ck.Phase, len(ck.Payload), want)
	}
	// The CRC only proves these are the bytes saved: a NaN radius would
	// resume into a NaN energy, a zero or infinite one breaks the class
	// aggregates. |x| ≤ MaxFloat64 is false exactly for NaN and ±Inf.
	if n := s.NumAtoms(); ck.Phase >= PhaseRadii {
		for i, r := range ck.Payload[:n] {
			if !(r > 0 && r <= math.MaxFloat64) {
				return fmt.Errorf("gb: %s checkpoint holds Born radius %v for atom %d, want finite and positive", ck.Phase, r, i)
			}
		}
		if pl := ck.Payload; ck.Phase == PhaseEpol &&
			!(math.Abs(pl[n]) <= math.MaxFloat64 && math.Abs(pl[n+2]) <= math.MaxFloat64) {
			return fmt.Errorf("gb: epol checkpoint holds energy %v and bound %v, want finite values", pl[n], pl[n+2])
		}
	}
	return nil
}

// WithRelaxedEps returns a copy of the system whose far-field criteria
// use factor-times-relaxed approximation parameters (EpsBorn and
// EpsEpol). The octrees and precomputed data do not depend on ε, so the
// copy is shallow and shares them; only the traversal thresholds change.
// This is the supervisor's accuracy-shedding knob: under fault pressure
// a relaxed ε trades bounded accuracy for completion (the work/precision
// trade Knepley & Bardhan analyze), and the relaxation is priced into
// the returned ErrorBound by the supervisor.
//
// Deprecated: use WithAccuracy(s.Params.Accuracy.Relaxed(factor)); this
// wrapper remains for the legacy supervisor rung and behaves identically.
func (s *System) WithRelaxedEps(factor float64) *System {
	if factor <= 1 {
		return s
	}
	c := *s
	c.Params.EpsBorn *= factor
	c.Params.EpsEpol *= factor
	if !c.Params.Accuracy.IsZero() {
		// Keep the normalized mirror in sync (NewSystem always populates
		// it) so order() and the Accuracy readers see the relaxed point.
		c.Params.Accuracy.EpsBorn = c.Params.EpsBorn
		c.Params.Accuracy.EpsEpol = c.Params.EpsEpol
	}
	return &c
}
