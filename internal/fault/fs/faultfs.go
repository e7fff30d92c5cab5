package fs

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// maxSlowSleep caps the real sleep a SlowIO event injects per operation
// so a mis-typed plan cannot stall a test run; the plan's Dur is still
// what String reports.
const maxSlowSleep = time.Millisecond

// Stats counts operations seen and faults injected by a FaultFS. The
// totals let a test assert a plan actually fired (a plan whose ops all
// land past the workload's counters injects nothing — silent vacuity).
type Stats struct {
	// Operation totals per counter class.
	Writes int64
	Syncs  int64
	Reads  int64
	Ops    int64
	// Injection counts per kind.
	Enospc       int64
	ShortWrites  int64
	TornWrites   int64
	SyncErrors   int64
	SyncLies     int64
	CorruptReads int64
	SlowOps      int64
}

// memFile is one file of the in-memory disk, modeling the gap between
// what a writer was told and what a crash preserves.
type memFile struct {
	// data is the current content — what ReadFile sees while the
	// process lives.
	data []byte
	// syncedLen is the honest-sync durable prefix: bytes guaranteed to
	// survive Crash.
	syncedLen int
	// tornSurvive is how many bytes past syncedLen survive Crash
	// anyway: unsynced dirty pages the (simulated) OS flushed on its
	// own, extended by torn-write events. Cleared by an honest sync.
	tornSurvive int
}

func (m *memFile) durableLen() int {
	n := m.syncedLen + m.tornSurvive
	if n > len(m.data) {
		n = len(m.data)
	}
	return n
}

// FaultFS is an in-memory filesystem that injects the faults of a
// seeded Plan. All triggers are operation counters — write ops for the
// write-path kinds, sync ops for the fsync kinds, ReadFile ops for
// corrupt reads, a global op counter for slow I/O — so a given (plan,
// workload) pair replays identically.
//
// Durability model: metadata operations (create, rename, remove,
// mkdir) are durable immediately, as on a metadata-journaling
// filesystem; file DATA is durable only up to the last honest Sync.
// Crash returns a new FaultFS holding only the durable bytes — the old
// instance stays valid, so a killed server's lingering goroutines
// write harmlessly into the discarded disk, exactly as after a real
// kill -9.
type FaultFS struct {
	mu    sync.Mutex
	plan  *Plan
	files map[string]*memFile
	dirs  map[string]bool
	// lied holds paths whose latest Sync was acked by a SyncLie event:
	// the writer believes the data durable and it is not. An honest
	// later Sync clears the entry; Rename follows the file.
	lied    map[string]bool
	writeOp int64
	syncOp  int64
	readOp  int64
	allOp   int64
	tempSeq int
	stats   Stats
}

// NewFaultFS builds an empty in-memory disk injecting plan (nil or
// empty plan: a perfectly honest disk, useful as a crash-only model).
func NewFaultFS(plan *Plan) *FaultFS {
	return &FaultFS{
		plan:  plan,
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true, "/": true},
		lied:  make(map[string]bool),
	}
}

func (p *Plan) match(kind Kind, op int64) *Event {
	if p == nil {
		return nil
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Kind != kind {
			continue
		}
		count := ev.Count
		if count < 1 {
			count = 1
		}
		// op-ev.AtOp, unlike ev.AtOp+count, cannot overflow once op ≥ ev.AtOp.
		if op >= ev.AtOp && op-ev.AtOp < count {
			return ev
		}
	}
	return nil
}

// tick advances the global op counter and returns how long the caller
// must sleep (after releasing the lock) for a matching SlowIO event.
func (f *FaultFS) tick() time.Duration {
	op := f.allOp
	f.allOp++
	f.stats.Ops++
	if ev := f.plan.match(SlowIO, op); ev != nil {
		f.stats.SlowOps++
		d := ev.Dur
		if d > maxSlowSleep {
			d = maxSlowSleep
		}
		return d
	}
	return 0
}

func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func notExist(op, path string) error {
	return &os.PathError{Op: op, Path: path, Err: os.ErrNotExist}
}

// MkdirAll implements FS. Directories are metadata: durable at once.
func (f *FaultFS) MkdirAll(path string) error {
	f.mu.Lock()
	d := f.tick()
	for p := filepath.Clean(path); p != "." && p != "/" && p != ""; p = filepath.Dir(p) {
		f.dirs[p] = true
	}
	f.mu.Unlock()
	sleep(d)
	return nil
}

// CreateTemp implements FS. Names are a deterministic sequence (the
// pattern's * becomes the next integer) so plans replay against
// identical paths.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	d := f.tick()
	dir = filepath.Clean(dir)
	if !f.dirs[dir] {
		f.mu.Unlock()
		sleep(d)
		return nil, notExist("createtemp", dir)
	}
	f.tempSeq++
	var base string
	if prefix, suffix, ok := strings.Cut(pattern, "*"); ok {
		base = fmt.Sprintf("%s%d%s", prefix, f.tempSeq, suffix)
	} else {
		base = fmt.Sprintf("%s%d", pattern, f.tempSeq)
	}
	path := filepath.Join(dir, base)
	mf := &memFile{}
	f.files[path] = mf
	f.mu.Unlock()
	sleep(d)
	return &faultFile{fs: f, path: path, mf: mf}, nil
}

// Rename implements FS. Metadata: durable at once, and the lie flag
// follows the file — renaming an un-durable temp into place does not
// launder the lie.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	d := f.tick()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	mf, ok := f.files[oldpath]
	if !ok {
		f.mu.Unlock()
		sleep(d)
		return notExist("rename", oldpath)
	}
	delete(f.files, oldpath)
	f.files[newpath] = mf
	if f.lied[oldpath] {
		delete(f.lied, oldpath)
		f.lied[newpath] = true
	} else {
		delete(f.lied, newpath)
	}
	f.mu.Unlock()
	sleep(d)
	return nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	d := f.tick()
	name = filepath.Clean(name)
	if _, ok := f.files[name]; ok {
		delete(f.files, name)
		delete(f.lied, name)
		f.mu.Unlock()
		sleep(d)
		return nil
	}
	if f.dirs[name] {
		delete(f.dirs, name)
		f.mu.Unlock()
		sleep(d)
		return nil
	}
	f.mu.Unlock()
	sleep(d)
	return notExist("remove", name)
}

// ReadFile implements FS. A CorruptRead event flips one deterministic
// bit — bit (readOp*31) mod size — in the returned copy; the stored
// content stays intact (the fault is in the read path, not the media).
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	d := f.tick()
	op := f.readOp
	f.readOp++
	f.stats.Reads++
	name = filepath.Clean(name)
	mf, ok := f.files[name]
	if !ok {
		if f.dirs[name] {
			f.mu.Unlock()
			sleep(d)
			return nil, &os.PathError{Op: "read", Path: name, Err: syscall.EISDIR}
		}
		f.mu.Unlock()
		sleep(d)
		return nil, notExist("open", name)
	}
	data := append([]byte(nil), mf.data...)
	if ev := f.plan.match(CorruptRead, op); ev != nil && len(data) > 0 {
		f.stats.CorruptReads++
		bit := (op * 31) % int64(len(data)*8)
		data[bit/8] ^= 1 << (bit % 8)
	}
	f.mu.Unlock()
	sleep(d)
	return data, nil
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	f.mu.Lock()
	d := f.tick()
	name = filepath.Clean(name)
	if !f.dirs[name] {
		f.mu.Unlock()
		sleep(d)
		return nil, notExist("readdir", name)
	}
	var entries []iofs.DirEntry
	for p, mf := range f.files {
		if filepath.Dir(p) == name {
			entries = append(entries, dirEntry{name: filepath.Base(p), size: int64(len(mf.data))})
		}
	}
	for p := range f.dirs {
		if p != name && filepath.Dir(p) == name {
			entries = append(entries, dirEntry{name: filepath.Base(p), dir: true})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	f.mu.Unlock()
	sleep(d)
	return entries, nil
}

// Crash simulates kill -9 plus power loss: it returns a NEW FaultFS
// holding, for every file, only the bytes that were durable — the
// honest-sync prefix plus whatever torn-write events let survive —
// with metadata (paths, directories) intact and next as the new disk's
// plan (nil: an honest disk). The receiver remains usable so the dead
// process's lingering goroutines keep writing into the old, now
// discarded, disk without disturbing the restarted one.
func (f *FaultFS) Crash(next *Plan) *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := NewFaultFS(next)
	for p, mf := range f.files {
		n.files[p] = &memFile{
			data:      append([]byte(nil), mf.data[:mf.durableLen()]...),
			syncedLen: mf.durableLen(),
		}
	}
	for p := range f.dirs {
		n.dirs[p] = true
	}
	return n
}

// Lied reports, sorted, the paths whose most recent Sync was
// acknowledged without making the data durable. A harness that finds
// an acknowledged job lost after Crash can check its files against
// this set: loss explained by a proven fsync lie is the disk's fault,
// anything else is the daemon's.
func (f *FaultFS) Lied() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	paths := make([]string, 0, len(f.lied))
	for p := range f.lied {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Plan returns the plan this disk injects (nil: an honest disk).
func (f *FaultFS) Plan() *Plan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan
}

// Stats returns a snapshot of operation and injection counts.
func (f *FaultFS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// faultFile is a writable handle into a FaultFS.
type faultFile struct {
	fs     *FaultFS
	path   string
	mf     *memFile
	closed bool
}

// Name implements File.
func (h *faultFile) Name() string { return h.path }

// Write implements File, applying the write-path fault kinds in
// severity order: ENOSPC (nothing written), short write (a prefix
// written, error returned), torn write (all written and acked, only a
// prefix durable).
func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	d := h.fs.tick()
	if h.closed {
		h.fs.mu.Unlock()
		sleep(d)
		return 0, &os.PathError{Op: "write", Path: h.path, Err: os.ErrClosed}
	}
	op := h.fs.writeOp
	h.fs.writeOp++
	h.fs.stats.Writes++
	if h.fs.plan.match(ENOSPC, op) != nil {
		h.fs.stats.Enospc++
		h.fs.mu.Unlock()
		sleep(d)
		return 0, &os.PathError{Op: "write", Path: h.path, Err: syscall.ENOSPC}
	}
	if ev := h.fs.plan.match(ShortWrite, op); ev != nil {
		cut := cutOf(ev, len(p))
		h.mf.data = append(h.mf.data, p[:cut]...)
		h.fs.stats.ShortWrites++
		h.fs.mu.Unlock()
		sleep(d)
		return cut, &os.PathError{Op: "write", Path: h.path, Err: io.ErrShortWrite}
	}
	if ev := h.fs.plan.match(TornWrite, op); ev != nil {
		cut := cutOf(ev, len(p))
		h.mf.data = append(h.mf.data, p...)
		// The simulated OS flushed dirty pages through cut bytes of this
		// write: everything unsynced before it survives too, keeping the
		// surviving content a prefix (as on a real sequential log).
		if surv := len(h.mf.data) - len(p) + cut - h.mf.syncedLen; surv > h.mf.tornSurvive {
			h.mf.tornSurvive = surv
		}
		h.fs.stats.TornWrites++
		h.fs.mu.Unlock()
		sleep(d)
		return len(p), nil
	}
	h.mf.data = append(h.mf.data, p...)
	h.fs.mu.Unlock()
	sleep(d)
	return len(p), nil
}

func cutOf(ev *Event, n int) int {
	cut := ev.Cut
	if cut < 0 {
		cut = n / 2
	}
	if cut > n {
		cut = n
	}
	return cut
}

// Sync implements File. An honest sync makes the whole current content
// durable and clears any standing lie on the path; a SyncError event
// fails with EIO leaving the data volatile; a SyncLie event returns
// nil WITHOUT making the data durable and records the path in Lied.
func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	d := h.fs.tick()
	if h.closed {
		h.fs.mu.Unlock()
		sleep(d)
		return &os.PathError{Op: "sync", Path: h.path, Err: os.ErrClosed}
	}
	op := h.fs.syncOp
	h.fs.syncOp++
	h.fs.stats.Syncs++
	if h.fs.plan.match(SyncError, op) != nil {
		h.fs.stats.SyncErrors++
		h.fs.mu.Unlock()
		sleep(d)
		return &os.PathError{Op: "sync", Path: h.path, Err: syscall.EIO}
	}
	if h.fs.plan.match(SyncLie, op) != nil {
		h.fs.stats.SyncLies++
		h.fs.lied[h.path] = true
		h.fs.mu.Unlock()
		sleep(d)
		return nil
	}
	h.mf.syncedLen = len(h.mf.data)
	h.mf.tornSurvive = 0
	delete(h.fs.lied, h.path)
	h.fs.mu.Unlock()
	sleep(d)
	return nil
}

// Close implements File.
func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	d := h.fs.tick()
	h.closed = true
	h.fs.mu.Unlock()
	sleep(d)
	return nil
}

// dirEntry is the iofs.DirEntry of a FaultFS listing.
type dirEntry struct {
	name string
	dir  bool
	size int64
}

func (e dirEntry) Name() string { return e.name }
func (e dirEntry) IsDir() bool  { return e.dir }
func (e dirEntry) Type() iofs.FileMode {
	if e.dir {
		return iofs.ModeDir
	}
	return 0
}
func (e dirEntry) Info() (iofs.FileInfo, error) { return fileInfo{e}, nil }

type fileInfo struct{ e dirEntry }

func (i fileInfo) Name() string { return i.e.name }
func (i fileInfo) Size() int64  { return i.e.size }
func (i fileInfo) Mode() iofs.FileMode {
	if i.e.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i fileInfo) ModTime() time.Time { return time.Time{} }
func (i fileInfo) IsDir() bool        { return i.e.dir }
func (i fileInfo) Sys() any           { return nil }
