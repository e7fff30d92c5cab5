package fs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"enospc@2+1",
		"shortw:12@0+1",
		"torn:40@5+1",
		"syncerr@0+2",
		"synclie@3+1",
		"corrupt@1+2",
		"slow@0+8~200µs",
		"enospc@2+1,torn:40@5+1,syncerr@0+2,slow@0+8~200µs",
	}
	for _, in := range cases {
		p, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got := p.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("torn@3")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ev := p.Events[0]
	if ev.Cut != -1 || ev.Count != 1 || ev.AtOp != 3 {
		t.Fatalf("defaults: got %+v", ev)
	}
	if empty, err := Parse("  "); err != nil || !empty.Empty() {
		t.Fatalf("blank plan: %v %v", empty, err)
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"frobnicate@0",      // unknown kind
		"enospc",            // missing @op
		"enospc@-1",         // negative op
		"enospc@0+0",        // zero count
		"enospc:3@0",        // cut on a cutless kind
		"torn:-1@0",         // negative cut
		"slow@0+4",          // slow without duration
		"enospc@0~1ms",      // duration on a non-slow kind
		"slow@0+4~bogus",    // unparseable duration
		"enospc@1,enospc@1", // duplicate (kind, op)
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		}
	}
	// Same op, different kinds is NOT a duplicate.
	if _, err := Parse("enospc@1,syncerr@1"); err != nil {
		t.Errorf("distinct kinds at one op: %v", err)
	}
}

func TestChaosDeterministic(t *testing.T) {
	a, b := Chaos(42, 6), Chaos(42, 6)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if c := Chaos(43, 6); c.String() == a.String() {
		t.Fatalf("different seeds agree: %s", c)
	}
	// Every generated plan must survive its own round trip.
	for seed := int64(0); seed < 20; seed++ {
		p := Chaos(seed, 8)
		rt, err := Parse(p.String())
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v", seed, err)
		}
		if rt.String() != p.String() {
			t.Fatalf("seed %d: round trip drifted", seed)
		}
	}
}

// writeFile is the test shorthand: full atomic discipline via the FS
// under test.
func writeFile(t *testing.T, fsys FS, path string, data []byte) error {
	t.Helper()
	if err := fsys.MkdirAll(dirOf(path)); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	return WriteFileAtomic(fsys, path, data)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sub/file.json"
	if err := writeFile(t, OS, path, []byte(`{"ok":true}`)); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := OS.ReadFile(path)
	if err != nil || string(got) != `{"ok":true}` {
		t.Fatalf("ReadFile: %q %v", got, err)
	}
	ents, err := OS.ReadDir(dir + "/sub")
	if err != nil || len(ents) != 1 || ents[0].Name() != "file.json" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if err := OS.Remove(path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OS.ReadFile(path); !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist after Remove, got %v", err)
	}
}

func TestFaultFSHonestDisk(t *testing.T) {
	ffs := NewFaultFS(nil)
	if err := writeFile(t, ffs, "data/a.json", []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ffs.ReadFile("data/a.json")
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q %v", got, err)
	}
	// Synced before rename, so the content survives a crash whole.
	after := ffs.Crash(nil)
	got, err = after.ReadFile("data/a.json")
	if err != nil || string(got) != "hello" {
		t.Fatalf("post-crash read: %q %v", got, err)
	}
	if _, err := after.ReadFile("data/missing"); !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist, got %v", err)
	}
}

func TestFaultFSENOSPC(t *testing.T) {
	p, _ := Parse("enospc@0+2")
	ffs := NewFaultFS(p)
	err := writeFile(t, ffs, "d/x", []byte("doomed"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	// The failed publication must leave no file and no temp behind.
	if _, rerr := ffs.ReadFile("d/x"); !os.IsNotExist(rerr) {
		t.Fatalf("file published despite ENOSPC: %v", rerr)
	}
	if ents, _ := ffs.ReadDir("d"); len(ents) != 0 {
		t.Fatalf("temp leaked: %v", ents)
	}
	// Each atomic publication costs one write op, so the +2 window also
	// dooms the second publication; the third escapes it.
	if err := writeFile(t, ffs, "d/y", []byte("also doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second write in window: want ENOSPC, got %v", err)
	}
	if err := writeFile(t, ffs, "d/y", []byte("ok")); err != nil {
		t.Fatalf("post-window write: %v", err)
	}
	if st := ffs.Stats(); st.Enospc != 2 {
		t.Fatalf("stats.Enospc = %d, want 2", st.Enospc)
	}
	// A window whose end lies past MaxInt64 still fires from its start:
	// the first publication escapes it, the next ten do not.
	wide, perr := Parse("enospc@1+9223372036854775807")
	if perr != nil {
		t.Fatal(perr)
	}
	ffs = NewFaultFS(wide)
	if err := writeFile(t, ffs, "d/z", []byte("ok")); err != nil {
		t.Fatalf("write before the max-count window: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := writeFile(t, ffs, "d/z", []byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d in the max-count window: want ENOSPC, got %v", i+1, err)
		}
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	p, _ := Parse("shortw:3@0+1")
	ffs := NewFaultFS(p)
	err := writeFile(t, ffs, "d/x", []byte("abcdef"))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want ErrShortWrite, got %v", err)
	}
	if _, rerr := ffs.ReadFile("d/x"); !os.IsNotExist(rerr) {
		t.Fatalf("short write published a file: %v", rerr)
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	p, _ := Parse("torn:3@0+1,synclie@0+1")
	ffs := NewFaultFS(p)
	// The torn write acks fully and the lying sync acks too, so the
	// publication "succeeds" — but only 3 bytes survive the crash.
	if err := writeFile(t, ffs, "d/x", []byte("abcdef")); err != nil {
		t.Fatalf("torn+lie write reported failure: %v", err)
	}
	if got, err := ffs.ReadFile("d/x"); err != nil || string(got) != "abcdef" {
		t.Fatalf("live read: %q %v", got, err)
	}
	after := ffs.Crash(nil)
	got, err := after.ReadFile("d/x")
	if err != nil || string(got) != "abc" {
		t.Fatalf("post-crash torn content: %q %v (want \"abc\")", got, err)
	}
	st := ffs.Stats()
	if st.TornWrites != 1 || st.SyncLies != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFaultFSSyncError(t *testing.T) {
	p, _ := Parse("syncerr@0+1")
	ffs := NewFaultFS(p)
	err := writeFile(t, ffs, "d/x", []byte("volatile"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO from sync, got %v", err)
	}
	if _, rerr := ffs.ReadFile("d/x"); !os.IsNotExist(rerr) {
		t.Fatalf("failed sync still published: %v", rerr)
	}
}

func TestFaultFSSyncLie(t *testing.T) {
	p, _ := Parse("synclie@0+1")
	ffs := NewFaultFS(p)
	if err := writeFile(t, ffs, "d/x", []byte("believed safe")); err != nil {
		t.Fatalf("lied write reported failure: %v", err)
	}
	lied := ffs.Lied()
	if len(lied) != 1 || lied[0] != "d/x" {
		t.Fatalf("Lied() = %v, want [d/x] (the lie must follow the rename)", lied)
	}
	// The crash drops the data; the path survives (metadata journaled)
	// but the content is empty — a truncated, unparseable file.
	after := ffs.Crash(nil)
	got, err := after.ReadFile("d/x")
	if err != nil || len(got) != 0 {
		t.Fatalf("post-crash lied content: %q %v (want empty)", got, err)
	}
	// An honest re-sync clears the lie.
	if err := WriteFileAtomic(ffs, "d/x", []byte("now durable")); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if lied := ffs.Lied(); len(lied) != 0 {
		t.Fatalf("Lied() after honest rewrite = %v, want empty", lied)
	}
}

func TestFaultFSCorruptRead(t *testing.T) {
	p, _ := Parse("corrupt@1+1")
	ffs := NewFaultFS(p)
	payload := []byte("checksummed payload")
	if err := writeFile(t, ffs, "d/x", payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	clean, err := ffs.ReadFile("d/x") // read op 0: clean
	if err != nil || !bytes.Equal(clean, payload) {
		t.Fatalf("read 0: %q %v", clean, err)
	}
	dirty, err := ffs.ReadFile("d/x") // read op 1: one bit flipped
	if err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if bytes.Equal(dirty, payload) {
		t.Fatal("corrupt read returned clean data")
	}
	diff := 0
	for i := range dirty {
		diff += popcount(dirty[i] ^ payload[i])
	}
	if diff != 1 {
		t.Fatalf("corrupt read flipped %d bits, want exactly 1", diff)
	}
	// The media is intact: the next read is clean again.
	again, err := ffs.ReadFile("d/x")
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("read 2: %q %v", again, err)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestFaultFSSlowIsBounded(t *testing.T) {
	// A plan asking for an hour per op must be capped to maxSlowSleep.
	p, _ := Parse("slow@0+100~1h")
	ffs := NewFaultFS(p)
	if err := writeFile(t, ffs, "d/x", []byte("slow but fine")); err != nil {
		t.Fatalf("write under slow plan: %v", err)
	}
	if st := ffs.Stats(); st.SlowOps == 0 {
		t.Fatal("slow plan never fired")
	}
}

func TestFaultFSCrashIsolatesOldHandles(t *testing.T) {
	ffs := NewFaultFS(nil)
	if err := ffs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	h, err := ffs.CreateTemp("d", ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	after := ffs.Crash(nil)
	// The dead process keeps writing into the OLD disk; the new disk
	// must not see it.
	if _, err := h.Write([]byte("ghost")); err != nil {
		t.Fatalf("ghost write errored: %v", err)
	}
	ents, err := after.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if data, _ := after.ReadFile("d/" + e.Name()); len(data) != 0 {
			t.Fatalf("ghost write visible post-crash: %q", data)
		}
	}
}

func TestFaultFSDeterministicReplay(t *testing.T) {
	run := func() (string, Stats) {
		p, _ := Parse("enospc@1+1,torn:2@3+1,syncerr@1+1,corrupt@2+1")
		ffs := NewFaultFS(p)
		var log bytes.Buffer
		for _, content := range []string{"one", "two", "three", "four"} {
			outcome := "ok"
			if err := writeFile(t, ffs, "d/f", []byte(content)); err != nil {
				outcome = err.Error()
			}
			log.WriteString(outcome)
			log.WriteByte(';')
		}
		for i := 0; i < 3; i++ {
			data, err := ffs.ReadFile("d/f")
			if err != nil {
				log.WriteString(err.Error())
			} else {
				log.Write(data)
			}
			log.WriteByte(';')
		}
		return log.String(), ffs.Stats()
	}
	logA, stA := run()
	logB, stB := run()
	if logA != logB || stA != stB {
		t.Fatalf("replay diverged:\n%s\n%s\n%+v vs %+v", logA, logB, stA, stB)
	}
}

func TestWriteFileAtomicKeepsOldStateOnFailure(t *testing.T) {
	// Publish v1 cleanly, then fail the v2 publication at the sync: the
	// reader must still see v1 whole, both live and after a crash.
	p, _ := Parse("syncerr@1+1")
	ffs := NewFaultFS(p)
	if err := writeFile(t, ffs, "d/cfg", []byte("v1")); err != nil {
		t.Fatalf("v1: %v", err)
	}
	if err := WriteFileAtomic(ffs, "d/cfg", []byte("v2")); err == nil {
		t.Fatal("v2 publication should have failed")
	}
	if got, err := ffs.ReadFile("d/cfg"); err != nil || string(got) != "v1" {
		t.Fatalf("live content after failed publish: %q %v", got, err)
	}
	after := ffs.Crash(nil)
	if got, err := after.ReadFile("d/cfg"); err != nil || string(got) != "v1" {
		t.Fatalf("post-crash content after failed publish: %q %v", got, err)
	}
}
