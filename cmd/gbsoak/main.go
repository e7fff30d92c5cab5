// Command gbsoak is the storage/resource fault-domain soak harness: it
// runs the gbd daemon core in-process, generation after generation, on a
// seeded fault-injecting filesystem — ENOSPC, short and torn writes,
// fsync errors and fsync lies, corrupt reads, slow I/O — combined with
// network fault plans (rank crash/straggle), mid-run kills,
// graceful drains, and power loss after drain. It then asserts the
// daemon's durability story end to end:
//
//   - no 202-acknowledged job is ever lost across crash+restart (losses
//     provably caused by a lying fsync are reported and exempted);
//   - jobs that saw only disk faults and crashes finish with Epol bits
//     identical to a clean oracle run;
//   - jobs that also saw network chaos finish within their priced error
//     bound or as a typed error;
//   - the admission queue stays bounded, the memory gate answers typed
//     413/429s, and no goroutine outlives the last drain.
//
// Everything is derived from -seed: the same seed replays the same disk
// and network plans. A red run writes its full report into -bundle for
// CI artifact upload.
//
// Usage:
//
//	gbsoak                       # default plan (~ a few minutes)
//	gbsoak -short                # CI-sized plan (< 90s)
//	gbsoak -seed 7 -v            # replay a specific universe, verbosely
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "chaos seed: disk plans, network plans, and molecules all derive from it")
		short      = flag.Bool("short", false, "CI-sized plan: fewer jobs, fewer rounds, smaller molecules")
		rounds     = flag.Int("rounds", 0, "crash/drain cycles before the healed final incarnation (0: 4, or 2 with -short)")
		jobs       = flag.Int("jobs", 0, "bitwise-checked jobs (0: 6, or 3 with -short)")
		chaosJobs  = flag.Int("chaos-jobs", 0, "network-chaos jobs (0: 4, or 2 with -short)")
		atoms      = flag.Int("atoms", 0, "bitwise-job molecule size (0: 150, or 100 with -short)")
		chaosAtoms = flag.Int("chaos-atoms", 0, "chaos-job molecule size (0: 120, or 90 with -short)")
		procs      = flag.Int("P", 3, "requested processes per job")
		diskEvents = flag.Int("disk-events", 6, "disk fault events per incarnation")
		memBudget  = flag.Int64("mem-budget", 16<<20, "daemon memory budget in bytes (sizes the 413/429 probes)")
		ckptDelay  = flag.Duration("checkpoint-delay", 2*time.Millisecond, "per-checkpoint slowdown widening the mid-run kill window")
		wait       = flag.Duration("wait", 2*time.Minute, "final-incarnation completion deadline")
		bundle     = flag.String("bundle", "", "directory to write the failure bundle into when the soak is red")
		strict     = flag.Bool("strict", true, "require at least one bit-verified job (a soak that proves nothing is red)")
		verbose    = flag.Bool("v", false, "log every incarnation and invariant event")
	)
	flag.Parse()

	pick := func(f *int, long, shortVal int) {
		if *f == 0 {
			if *short {
				*f = shortVal
			} else {
				*f = long
			}
		}
	}
	pick(rounds, 4, 2)
	pick(jobs, 6, 3)
	pick(chaosJobs, 4, 2)
	pick(atoms, 150, 100)
	pick(chaosAtoms, 120, 90)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gbsoak: "+format+"\n", args...)
	}
	quiet := logf
	if !*verbose {
		quiet = nil
	}

	start := time.Now()
	rep := soak(options{
		seed:       *seed,
		rounds:     *rounds,
		bitJobs:    *jobs,
		chaosJobs:  *chaosJobs,
		atoms:      *atoms,
		chaosAtoms: *chaosAtoms,
		procs:      *procs,
		diskEvents: *diskEvents,
		memBudget:  *memBudget,
		ckptDelay:  *ckptDelay,
		wait:       *wait,
		strict:     *strict,
		logf:       quiet,
	})

	logf("seed %d: %d acked, %d resumed-from-disk, %d bit-verified, %d shrunk, %d degraded, %d failed, %d fsync-lie losses in %v",
		rep.Seed, rep.Acked, rep.Resumed, rep.BitVerified, rep.Shrunk, rep.Degraded, rep.Failed,
		len(rep.LieLosses), time.Since(start).Round(time.Millisecond))
	if len(rep.Rejected) > 0 {
		rej, err := json.Marshal(rep.Rejected)
		if err == nil {
			logf("typed rejections: %s", rej)
		}
	}
	logf("disk: %d writes / %d syncs / %d reads; injected %d enospc, %d short, %d torn, %d syncerr, %d synclie, %d corrupt, %d slow",
		rep.DiskStats.Writes, rep.DiskStats.Syncs, rep.DiskStats.Reads,
		rep.DiskStats.Enospc, rep.DiskStats.ShortWrites, rep.DiskStats.TornWrites,
		rep.DiskStats.SyncErrors, rep.DiskStats.SyncLies, rep.DiskStats.CorruptReads, rep.DiskStats.SlowOps)

	if len(rep.Violations) == 0 {
		logf("PASS: all durability invariants held")
		return
	}
	for _, v := range rep.Violations {
		logf("FAIL: %s", v)
	}
	if *bundle != "" {
		if err := writeBundle(*bundle, rep); err != nil {
			logf("writing failure bundle: %v", err)
		} else {
			logf("failure bundle written to %s (replay with -seed %d)", *bundle, rep.Seed)
		}
	}
	os.Exit(1)
}

// writeBundle dumps the full report (violations, per-job terminal
// states, disk stats, daemon counters) for CI artifact upload. The
// bundle goes to the real disk — the soak's own FaultFS died with the
// run.
func writeBundle(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.json"), append(data, '\n'), 0o644)
}
