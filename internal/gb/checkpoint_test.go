package gb

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

// sealCheckpoint appends the CRC trailer, so a hand-built body reaches
// the structural decoder instead of failing the checksum.
func sealCheckpoint(body []byte) []byte {
	return appendU32(body, crc32.ChecksumIEEE(body))
}

// checkpointHead is the v2 header through ConfigTag and both ε fields,
// with empty membership lists.
func checkpointHead() []byte {
	b := appendU32([]byte(checkpointMagic), checkpointVersion)
	b = appendI64(b, int64(PhaseEpol))
	b = appendI64(b, 1)
	b = appendU32(b, 0) // Live
	b = appendU32(b, 0) // Lost
	b = appendU32(b, 7) // ConfigTag
	b = appendFloat(b, 0.9)
	return appendFloat(b, 0.9)
}

// TestDecodeCheckpointRejectsHugeCounts: a count the remaining bytes
// cannot hold is truncation, reported before anything is allocated for
// it. Each blob is tiny and carries a valid CRC; before the bound, the
// first one ended the process with "runtime: out of memory".
func TestDecodeCheckpointRejectsHugeCounts(t *testing.T) {
	live := appendU32([]byte(checkpointMagic), checkpointVersion)
	live = appendI64(live, int64(PhaseEpol))
	live = appendI64(live, 1)
	live = appendU32(live, 0xFFFFFFFF)

	payload := appendU32(checkpointHead(), 0xFFFFFFFF)

	buckets := appendU32(checkpointHead(), 0) // empty payload
	buckets = append(buckets, 1)              // Obs present
	buckets = appendU32(buckets, 0)           // no counters
	buckets = appendU32(buckets, 1)           // one histogram
	buckets = appendString(buckets, "h")
	buckets = appendI64(buckets, 1)
	buckets = appendI64(buckets, 1)
	buckets = appendU32(buckets, 0xFFFFFFFF)

	for _, c := range []struct {
		name string
		body []byte
	}{{"live", live}, {"payload", payload}, {"buckets", buckets}} {
		blob := sealCheckpoint(c.body)
		if c.name == "live" && len(blob) != 32 {
			t.Fatalf("live blob is %d bytes, want 32", len(blob))
		}
		_, err := DecodeCheckpoint(blob)
		if err == nil || !strings.Contains(err.Error(), "truncated checkpoint") {
			t.Errorf("%s count 0xFFFFFFFF: error %v, want a truncated-checkpoint error", c.name, err)
		}
	}
}

// phaseSnapshots runs a small system at two ranks and returns the
// encoded snapshot of every phase, recorded with or without Obs.
func phaseSnapshots(tb testing.TB, withObs bool) [][]byte {
	s := buildSys(tb, 40, DefaultParams())
	sink := &memSink{}
	spec := RunSpec{Processes: 2, Checkpoint: sink}
	if withObs {
		spec.Obs = obs.NewRecorder(perf.StartTimer().Elapsed)
	}
	if _, err := s.Run(spec); err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, 0, len(sink.saves))
	for _, sv := range sink.saves {
		out = append(out, sv.data)
	}
	return out
}

// FuzzDecodeCheckpoint: no input panics or aborts the decoder, and any
// input that decodes re-encodes to a fixed point. Each input is tried as
// given and with its CRC trailer recomputed, so mutations also reach the
// structural decoder behind the checksum.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, withObs := range []bool{false, true} {
		for _, enc := range phaseSnapshots(f, withObs) {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, sealCheckpoint(bytes.Clone(data[:len(data)-4])))
		}
		for _, in := range inputs {
			ck, err := DecodeCheckpoint(in)
			if err != nil {
				continue
			}
			enc := ck.Encode()
			again, err := DecodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if !bytes.Equal(again.Encode(), enc) {
				t.Fatal("Encode(Decode(Encode(ck))) differs from Encode(ck)")
			}
		}
	})
}
