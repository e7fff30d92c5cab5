package main

import (
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gbpolar/internal/fault/fs"
)

// countingFS wraps the server's filesystem and tallies its durability
// work: syncs, renames, checkpoint publications, bytes written (trace
// files' bytes also on their own), and wall time inside filesystem
// calls. Safe for concurrent use.
type countingFS struct {
	inner fs.FS
	mu    sync.Mutex
	n     fsCounts
}

// fsCounts is a snapshot of a countingFS's tallies.
type fsCounts struct {
	syncs, renames, checkpoints int64
	writeBytes, traceBytes      int64
	busy                        time.Duration
}

func (c *countingFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// tally adds the time since start and lets update adjust the counts.
func (c *countingFS) tally(start time.Time, update func(n *fsCounts)) {
	d := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n.busy += d
	if update != nil {
		update(&c.n)
	}
}

func (c *countingFS) MkdirAll(path string) error {
	defer c.tally(time.Now(), nil)
	return c.inner.MkdirAll(path)
}

func (c *countingFS) CreateTemp(dir, pattern string) (fs.File, error) {
	defer c.tally(time.Now(), nil)
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	// The server persists attempt traces under <job>/trace/, and a temp
	// file sits in its target's directory.
	return &countingFile{File: f, owner: c, trace: filepath.Base(dir) == "trace"}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	defer c.tally(time.Now(), func(n *fsCounts) {
		n.renames++
		if strings.HasSuffix(newpath, ".gbcp") {
			n.checkpoints++
		}
	})
	return c.inner.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error {
	defer c.tally(time.Now(), nil)
	return c.inner.Remove(name)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	defer c.tally(time.Now(), nil)
	return c.inner.ReadFile(name)
}

func (c *countingFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	defer c.tally(time.Now(), nil)
	return c.inner.ReadDir(name)
}

// countingFile tallies one file's writes and syncs into its owner.
type countingFile struct {
	fs.File
	owner *countingFS
	trace bool
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.owner.tally(start, func(c *fsCounts) {
		c.writeBytes += int64(n)
		if f.trace {
			c.traceBytes += int64(n)
		}
	})
	return n, err
}

func (f *countingFile) Sync() error {
	defer f.owner.tally(time.Now(), func(c *fsCounts) { c.syncs++ })
	return f.File.Sync()
}

func (f *countingFile) Close() error {
	defer f.owner.tally(time.Now(), nil)
	return f.File.Close()
}
