package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gbpolar/internal/fault/fs"
)

// On-disk layout, one directory per job under Config.DataDir:
//
//	<id>/job.json     the admitted JobRequest — written before the job
//	                  is queued, so an admitted job survives a crash
//	<id>/ckpt/        the job's supervise.DirStore phase checkpoints
//	<id>/result.json  the terminal JobView — written once, atomically,
//	                  when the job finishes
//
// The pair (job.json present, result.json absent) IS the daemon's
// work-in-progress set: startup re-queues exactly those directories,
// and each resumes from its newest checkpoint. No separate queue file
// exists to get out of sync.

// jobRecord is the job.json schema.
type jobRecord struct {
	ID  string     `json:"id"`
	Req JobRequest `json:"request"`
}

// newJobID returns a fresh random job ID ("j-" + 8 random bytes hex).
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: generating job id: %w", err)
	}
	return "j-" + hex.EncodeToString(b[:]), nil
}

func (s *Server) jobDir(id string) string  { return filepath.Join(s.cfg.DataDir, id) }
func (s *Server) ckptDir(id string) string { return filepath.Join(s.jobDir(id), "ckpt") }

// writeFileAtomic writes data through the server's filesystem via the
// full durability discipline (temp file + write + fsync + rename) so a
// crash can never leave a truncated file where a complete one should
// be — and an acked write really is on stable storage, not just in the
// page cache.
func (s *Server) writeFileAtomic(path string, data []byte) error {
	return fs.WriteFileAtomic(s.cfg.FS, path, data)
}

// persistJob durably records an admitted job before it is queued.
func (s *Server) persistJob(id string, req *JobRequest) error {
	dir := s.jobDir(id)
	if err := s.cfg.FS.MkdirAll(dir); err != nil {
		return fmt.Errorf("serve: creating job dir: %w", err)
	}
	// Compact, because the 202 waits on this write; older daemons wrote
	// it indented, and scanJobs reads either.
	data, err := json.Marshal(jobRecord{ID: id, Req: *req})
	if err != nil {
		return fmt.Errorf("serve: encoding job: %w", err)
	}
	if err := s.writeFileAtomic(filepath.Join(dir, "job.json"), data); err != nil {
		return fmt.Errorf("serve: persisting job: %w", err)
	}
	return nil
}

// persistResult durably records a job's terminal view. After this the
// job's checkpoints are only a disk-footprint concern, not a
// correctness one.
func (s *Server) persistResult(id string, view *JobView) error {
	data, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encoding result: %w", err)
	}
	if err := s.writeFileAtomic(filepath.Join(s.jobDir(id), "result.json"), data); err != nil {
		return fmt.Errorf("serve: persisting result: %w", err)
	}
	return nil
}

// scanJobs reads DataDir and splits past jobs into finished (terminal
// JobViews to re-register for GET) and unfinished (jobRecords to
// re-queue for resume). Unreadable directories are skipped — a damaged
// job must not stop the daemon from serving new ones. Unfinished jobs
// come back sorted by ID so the re-queue order is stable.
func (s *Server) scanJobs() (finished []*JobView, unfinished []*jobRecord, err error) {
	entries, err := s.cfg.FS.ReadDir(s.cfg.DataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "j-") {
			continue
		}
		dir := filepath.Join(s.cfg.DataDir, e.Name())
		// A result.json that exists but fails to parse falls through to
		// the job.json branch: a torn terminal write (the atomic
		// discipline makes that a lying-fsync-only case) re-queues the
		// job instead of losing it — result.json is all-or-nothing.
		if data, err := s.cfg.FS.ReadFile(filepath.Join(dir, "result.json")); err == nil {
			var view JobView
			if json.Unmarshal(data, &view) == nil && view.ID != "" {
				finished = append(finished, &view)
				continue
			}
		}
		data, err := s.cfg.FS.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			continue
		}
		var recd jobRecord
		if json.Unmarshal(data, &recd) != nil || recd.ID == "" {
			continue
		}
		unfinished = append(unfinished, &recd)
	}
	sort.Slice(unfinished, func(i, j int) bool { return unfinished[i].ID < unfinished[j].ID })
	return finished, unfinished, nil
}
