// Corpus for the erretcheck analyzer: simmpi/fault error results signal
// rank loss and plan errors; discarding them is always a bug.
package erretcheck

import (
	"fmt"

	"gbpolar/internal/fault"
	"gbpolar/internal/fault/fs"
	"gbpolar/internal/simmpi"
)

// Positives: the three discard shapes for statement calls.
func dropped(c *simmpi.Comm) {
	c.Barrier()          // want "error result of simmpi.Barrier is dropped"
	go c.Barrier()       // want "error result of simmpi.Barrier is dropped by go statement"
	defer c.Barrier()    // want "error result of simmpi.Barrier is dropped by defer"
	fault.Parse("bad@@") // want "error result of fault.Parse is dropped"
}

// Positives: blanking every error position discards it just as surely.
func blanked(c *simmpi.Comm) {
	_, _ = c.Allreduce(nil, simmpi.Sum) // want "error result of simmpi.Allreduce is assigned to the blank identifier"
	v, _ := c.Allgatherv(nil)           // want "error result of simmpi.Allgatherv is assigned to the blank identifier"
	_ = v
	_, _ = fault.Parse("chaos:5") // want "error result of fault.Parse is assigned to the blank identifier"
}

// Negative: the error is named and handled.
func handled(c *simmpi.Comm) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	v, err := c.Allreduce(nil, simmpi.Sum)
	if err != nil {
		return err
	}
	_ = v
	p, err := fault.Parse("crash:1@4")
	if err != nil {
		return err
	}
	return p.Validate()
}

// Positives: the storage fault surface — every fault/fs error is a disk
// failure a durability site must observe.
func droppedStorage(fsys fs.FS, f fs.File) {
	fsys.Rename("a.tmp", "a")              // want "error result of fs.Rename is dropped"
	defer f.Sync()                         // want "error result of fs.Sync is dropped by defer"
	_ = fs.WriteFileAtomic(fsys, "p", nil) // want "error result of fs.WriteFileAtomic is assigned to the blank identifier"
	_, _ = fsys.CreateTemp("d", "x-*")     // want "error result of fs.CreateTemp is assigned to the blank identifier"
}

// Negative: storage errors that are named and handled.
func handledStorage(fsys fs.FS, path string, data []byte) error {
	if err := fsys.MkdirAll("d"); err != nil {
		return err
	}
	f, err := fsys.CreateTemp("d", "x-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(f.Name(), path)
}

// Negative: the analyzer polices simmpi and fault only — other dropped
// errors are vet/errcheck territory, not an SPMD invariant.
func otherPackages() {
	fmt.Println("fmt errors are not simmpi errors")
}

// Negative: error-free simmpi methods have nothing to drop.
func noError(c *simmpi.Comm) int {
	return c.Rank() + c.Size()
}
