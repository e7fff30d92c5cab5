package supervise

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gbpolar/internal/fault/fs"
	"gbpolar/internal/gb"
	"gbpolar/internal/obs"
	"gbpolar/internal/perf"
)

func testRecorder() *obs.Recorder {
	t := perf.StartTimer()
	return obs.NewRecorder(t.Elapsed)
}

func encodedSnap(phase gb.CheckpointPhase) []byte {
	return (&gb.Checkpoint{Phase: phase, Processes: 2, ConfigTag: 7,
		Payload: []float64{1, 2, 3}}).Encode()
}

func planOrDie(t *testing.T, s string) *fs.Plan {
	t.Helper()
	p, err := fs.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

// A transient fsync error must be absorbed by the save retry: the
// checkpoint lands durable, and the counters record what happened.
func TestDirStoreSaveRetriesSyncError(t *testing.T) {
	ffs := fs.NewFaultFS(planOrDie(t, "syncerr@0+1"))
	rec := testRecorder()
	d := &DirStore{Dir: "ckpt", FS: ffs, Obs: rec}
	if err := d.Save(gb.PhaseEpol, encodedSnap(gb.PhaseEpol)); err != nil {
		t.Fatalf("Save under one transient sync error: %v", err)
	}
	ck, err := d.Latest()
	if err != nil || ck == nil || ck.Phase != gb.PhaseEpol {
		t.Fatalf("Latest after retried save: %v %v", ck, err)
	}
	counters := rec.Counters()
	if counters["storage.sync_errors"] != 1 || counters["storage.retries"] != 1 {
		t.Fatalf("counters = %v, want sync_errors=1 retries=1", counters)
	}
	// The retried save must also survive a crash whole.
	after := &DirStore{Dir: "ckpt", FS: ffs.Crash(nil)}
	ck, err = after.Latest()
	if err != nil || ck == nil || ck.Phase != gb.PhaseEpol {
		t.Fatalf("post-crash Latest: %v %v", ck, err)
	}
}

// A disk that stays broken past the retry budget must surface the error
// to the supervisor — and leave no partial .gbcp behind.
func TestDirStoreSavePersistentENOSPC(t *testing.T) {
	ffs := fs.NewFaultFS(planOrDie(t, "enospc@0+8"))
	rec := testRecorder()
	d := &DirStore{Dir: "ckpt", FS: ffs, Obs: rec}
	if err := d.Save(gb.PhaseEpol, encodedSnap(gb.PhaseEpol)); err == nil {
		t.Fatal("Save on a full disk should fail")
	}
	if ck, err := d.Latest(); err != nil || ck != nil {
		t.Fatalf("Latest after failed save: %v %v (want nil, nil)", ck, err)
	}
	ents, err := ffs.ReadDir("ckpt")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed save left files behind: %v", ents)
	}
	if rec.Counters()["storage.retries"] != 1 {
		t.Fatalf("counters = %v, want retries=1", rec.Counters())
	}
}

// A torn write whose fsync also lies passes Save silently — the classic
// worst case. The CRC in the GBCP encoding catches it after the crash,
// and Latest quarantines the specimen instead of resuming from it.
func TestDirStoreTornWriteCaughtAfterCrash(t *testing.T) {
	ffs := fs.NewFaultFS(planOrDie(t, "torn:10@0+1,synclie@0+1"))
	d := &DirStore{Dir: "ckpt", FS: ffs}
	if err := d.Save(gb.PhaseEpol, encodedSnap(gb.PhaseEpol)); err != nil {
		t.Fatalf("torn+lied save reported failure: %v", err)
	}
	crashed := ffs.Crash(nil)
	rec := testRecorder()
	var lines []string
	after := &DirStore{Dir: "ckpt", FS: crashed, Obs: rec,
		Logf: func(f string, a ...any) { lines = append(lines, fmt.Sprintf(f, a...)) }}
	ck, err := after.Latest()
	if err != nil || ck != nil {
		t.Fatalf("Latest over torn snapshot: %v %v (want nil, nil)", ck, err)
	}
	if rec.Counters()["storage.quarantines"] != 1 {
		t.Fatalf("counters = %v, want quarantines=1", rec.Counters())
	}
	if len(lines) == 0 || !strings.Contains(lines[0], "quarantined corrupt checkpoint") {
		t.Fatalf("log lines = %v", lines)
	}
	qents, err := crashed.ReadDir("ckpt/quarantine")
	if err != nil || len(qents) != 1 {
		t.Fatalf("quarantine dir: %v %v (want the one torn file)", qents, err)
	}
}

// Double corruption of the same phase file: the second specimen gets a
// collision suffix; neither is lost, and resume still degrades to the
// surviving earlier phase.
func TestDirStoreQuarantineDoubleCorrupt(t *testing.T) {
	dir := t.TempDir()
	rec := testRecorder()
	d := &DirStore{Dir: dir, Obs: rec}
	if err := d.Save(gb.PhaseIntegrals, encodedSnap(gb.PhaseIntegrals)); err != nil {
		t.Fatalf("save integrals: %v", err)
	}
	epolPath := d.path(gb.PhaseEpol)
	for round := 1; round <= 2; round++ {
		if err := os.WriteFile(epolPath, []byte(fmt.Sprintf("garbage round %d", round)), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := d.Latest()
		if err != nil || ck == nil || ck.Phase != gb.PhaseIntegrals {
			t.Fatalf("round %d: Latest = %v %v, want the integrals snapshot", round, ck, err)
		}
	}
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatalf("quarantine dir: %v", err)
	}
	if len(qents) != 2 {
		t.Fatalf("quarantine holds %d files, want both specimens: %v", len(qents), qents)
	}
	base := filepath.Base(epolPath)
	if qents[0].Name() != base || qents[1].Name() != base+".1" {
		t.Fatalf("quarantine names: %s, %s (want %s and %s.1)",
			qents[0].Name(), qents[1].Name(), base, base)
	}
	if rec.Counters()["storage.quarantines"] != 2 {
		t.Fatalf("counters = %v, want quarantines=2", rec.Counters())
	}
	// The quarantine subdirectory must not count against, or be touched
	// by, Prune.
	if _, err := d.Prune(1); err != nil {
		t.Fatalf("Prune with quarantine present: %v", err)
	}
	if qents, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(qents) != 2 {
		t.Fatalf("Prune disturbed the quarantine: %v", qents)
	}
}

// A snapshot whose Live count claims 2^32−1 elements in a 32-byte file,
// under a valid CRC, is a decode error like any other: Latest
// quarantines it and falls back to the next-newest snapshot instead of
// sizing an allocation from the count and taking the process down.
func TestDirStoreQuarantinesHugeCount(t *testing.T) {
	dir := t.TempDir()
	rec := testRecorder()
	d := &DirStore{Dir: dir, Obs: rec}
	if err := d.Save(gb.PhaseRadii, encodedSnap(gb.PhaseRadii)); err != nil {
		t.Fatalf("save radii: %v", err)
	}
	blob := []byte("GBCP")
	blob = binary.LittleEndian.AppendUint32(blob, 2)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(gb.PhaseEpol))
	blob = binary.LittleEndian.AppendUint64(blob, 1)
	blob = binary.LittleEndian.AppendUint32(blob, 0xFFFFFFFF)
	blob = binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
	if len(blob) != 32 {
		t.Fatalf("blob is %d bytes, want 32", len(blob))
	}
	epolPath := d.path(gb.PhaseEpol)
	if err := os.WriteFile(epolPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := d.Latest()
	if err != nil || ck == nil || ck.Phase != gb.PhaseRadii {
		t.Fatalf("Latest = %v %v, want the radii snapshot", ck, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(epolPath))); err != nil {
		t.Fatalf("huge-count snapshot not quarantined: %v", err)
	}
	if rec.Counters()["storage.quarantines"] != 1 {
		t.Fatalf("counters = %v, want quarantines=1", rec.Counters())
	}
}
